// Command xrun is the fixture module's main. It reaches every function the
// other rules' cases need, so the deadcode rule reports only its own cases.
package main

import (
	"xmod/internal/experiments"
	"xmod/internal/shard"
	"xmod/internal/sim"
	"xmod/internal/vnet"
)

func main() {
	eng := &sim.Engine{}
	s := shard.New(eng)
	c := &experiments.Cell{}
	c.Attach(s)
	c.AttachLit(s)
	_ = experiments.StampResult()
	_ = experiments.MeanOf(nil)
	_ = s.Engine().Now()
	eng.Run()
	eng.Schedule(0, "x", func() {})
	eng.ScheduleAt(0, "x", func() {})
	_ = sim.Seeds(1)

	n := vnet.New()
	n.AddTap(&vnet.Sniffer{})
	vnet.Commands()["save"](n)
	n.Send("pkt")
	var head [2]byte
	n.Peek(&head)
	n.Flush()
}
