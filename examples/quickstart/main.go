// Quickstart: build a simulated cloud host, install the CloudSkulk
// rootkit against its victim VM, then catch it with the paper's
// memory-deduplication timing detector.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"os"

	"cloudskulk"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}
}

func run() error {
	// A seeded testbed: one host, one 1 GiB victim VM ("guest0").
	cloud, err := cloudskulk.New(1)
	if err != nil {
		return err
	}
	fmt.Printf("victim %q running at %v\n", cloud.Victim.Name(), cloud.Victim.Level())

	// The attack: recon, RITM VM, nested destination, live migration,
	// identity takeover. Zero-value config = the paper's defaults.
	rk, err := cloud.InstallRootkit(cloudskulk.InstallConfig{})
	if err != nil {
		return err
	}
	fmt.Printf("rootkit installed in %.1fs; victim now at %v inside %q\n",
		rk.Report.TotalTime.Seconds(), rk.Victim.Level(), rk.RITM.Name())

	// The defence: load a probe file into both L0 and the guest, let
	// KSM merge, and compare write timings before/after the guest
	// changes its copy.
	cloud.Host.KSM().Start()
	detector := cloudskulk.NewDedupDetector(cloud.Host)
	agent := cloudskulk.NewGuestAgent(rk.Victim)
	// The rootkit mirrors pushed files to impersonate the guest — the
	// very behaviour the detector exploits.
	agent.OnLoad = rk.InterceptFilePushes()

	verdict, ev, err := detector.Run(agent)
	if err != nil {
		return err
	}
	fmt.Printf("t0=%v  t1=%v  t2=%v per page write\n",
		ev.T0.Mean(), ev.T1.Mean(), ev.T2.Mean())
	fmt.Printf("verdict: %v\n", verdict)
	if verdict != cloudskulk.VerdictNested {
		return fmt.Errorf("expected the rootkit to be detected, got %v", verdict)
	}
	return nil
}
