package detect

import (
	"errors"
	"testing"

	"cloudskulk/internal/mem"
)

func TestImageProbeClean(t *testing.T) {
	h, _, vm := cleanCloud(t, 1)
	img := mem.GenerateFile(h.Engine().RNG(), "vendor-image", 256)
	const at = 3000
	if err := vm.RAM().LoadFile(img, at); err != nil {
		t.Fatal(err)
	}
	d := NewDedupDetector(h)
	d.Pages = 20
	agent := NewGuestAgent(vm)
	verdict, ev, err := d.RunImageProbe(agent, img, at)
	if err != nil {
		t.Fatal(err)
	}
	if verdict != VerdictClean {
		t.Fatalf("verdict = %v", verdict)
	}
	if ev.T1.MergedFraction < 0.9 || ev.T2.MergedFraction > 0.1 {
		t.Fatalf("fractions = %v / %v", ev.T1.MergedFraction, ev.T2.MergedFraction)
	}
	if len(ev.T1.Times) != 20 {
		t.Fatalf("probe pages = %d", len(ev.T1.Times))
	}
}

func TestImageProbeInfected(t *testing.T) {
	h, rk := infectedCloud(t, 2)
	img := mem.GenerateFile(h.Engine().RNG(), "vendor-image", 256)
	const at = 3000
	// The image was in the victim before capture... for this direct unit
	// test, load into the (already nested) victim and mirror into the
	// RITM — the impersonation.
	if err := rk.Victim.RAM().LoadFile(img, at); err != nil {
		t.Fatal(err)
	}
	if err := rk.MirrorRange(at, img.NumPages()); err != nil {
		t.Fatal(err)
	}
	d := NewDedupDetector(h)
	d.Pages = 20
	agent := NewGuestAgent(rk.Victim)
	verdict, ev, err := d.RunImageProbe(agent, img, at)
	if err != nil {
		t.Fatal(err)
	}
	if verdict != VerdictNested {
		t.Fatalf("verdict = %v (t2 merged %.0f%%)", verdict, ev.T2.MergedFraction*100)
	}
}

func TestImageProbeClampsPages(t *testing.T) {
	h, _, vm := cleanCloud(t, 3)
	img := mem.GenerateFile(h.Engine().RNG(), "tiny-image", 5)
	if err := vm.RAM().LoadFile(img, 3000); err != nil {
		t.Fatal(err)
	}
	d := NewDedupDetector(h)
	d.Pages = 100 // larger than the image
	agent := NewGuestAgent(vm)
	verdict, ev, err := d.RunImageProbe(agent, img, 3000)
	if err != nil {
		t.Fatal(err)
	}
	if len(ev.T1.Times) != 5 {
		t.Fatalf("clamped probe = %d pages", len(ev.T1.Times))
	}
	if verdict != VerdictClean {
		t.Fatalf("verdict = %v", verdict)
	}
}

func TestImageProbeRequiresKSM(t *testing.T) {
	h, _, vm := cleanCloud(t, 1)
	h.KSM().Stop()
	img := mem.GenerateFile(h.Engine().RNG(), "img", 8)
	d := NewDedupDetector(h)
	if _, _, err := d.RunImageProbe(NewGuestAgent(vm), img, 0); !errors.Is(err, ErrKSMOff) {
		t.Fatalf("err = %v", err)
	}
}

func TestMutateRange(t *testing.T) {
	_, _, vm := cleanCloud(t, 1)
	agent := NewGuestAgent(vm)
	before := vm.RAM().MustRead(100)
	if err := agent.MutateRange(100, 3); err != nil {
		t.Fatal(err)
	}
	if vm.RAM().MustRead(100) == before {
		t.Fatal("page unchanged")
	}
	if vm.RAM().MustRead(100) != mem.MutateContent(before) {
		t.Fatal("mutation not the deterministic variant")
	}
	if err := agent.MutateRange(1<<30, 1); err == nil {
		t.Fatal("out-of-range mutate succeeded")
	}
}
