// Package hostos models the slice of a host operating system the CloudSkulk
// attack interacts with: a process table with PIDs and command lines (the
// `ps -ef` recon surface), shell history (the `history` recon surface), and
// the PID manipulation the paper describes the attacker performing after
// migration ("changing the PID of GuestX to the original PID used by
// Guest0 is a trivial task").
package hostos

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"cloudskulk/internal/sim"
)

// Errors callers match on.
var (
	ErrNoSuchProcess = errors.New("hostos: no such process")
	ErrPIDInUse      = errors.New("hostos: pid already in use")
)

// Process is one entry in the process table. A defender sees only PID,
// owner and command line — nothing ties a QEMU process to the VM it backs
// (the simulator keeps that link on the VM, as its PID), which is exactly
// why the PID swap defeats PID-based monitoring.
type Process struct {
	PID     int
	Owner   string
	Command string
	Started time.Duration
}

// System is one host machine's OS view.
type System struct {
	eng     *sim.Engine
	nextPID int
	procs   map[int]*Process
	history []string
}

// New returns a host OS with an empty process table. PIDs start above the
// init range to look plausible in traces.
func New(eng *sim.Engine) *System {
	return &System{
		eng:     eng,
		nextPID: 1000,
		procs:   make(map[int]*Process),
	}
}

// Spawn creates a process with a fresh PID and returns it.
func (s *System) Spawn(owner, command string) *Process {
	s.nextPID++
	p := &Process{
		PID:     s.nextPID,
		Owner:   owner,
		Command: command,
		Started: s.eng.Now(),
	}
	s.procs[p.PID] = p
	return p
}

// Kill removes a process from the table.
func (s *System) Kill(pid int) error {
	if _, ok := s.procs[pid]; !ok {
		return fmt.Errorf("%w: %d", ErrNoSuchProcess, pid)
	}
	delete(s.procs, pid)
	return nil
}

// Process looks up a PID.
func (s *System) Process(pid int) (*Process, bool) {
	p, ok := s.procs[pid]
	return p, ok
}

// PS returns the process table sorted by PID — the `ps -ef` view.
func (s *System) PS() []*Process {
	out := make([]*Process, 0, len(s.procs))
	for _, p := range s.procs {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].PID < out[j].PID })
	return out
}

// FindByCommand returns processes whose command line contains substr,
// sorted by PID — how the attacker locates the target QEMU process.
func (s *System) FindByCommand(substr string) []*Process {
	var out []*Process
	for _, p := range s.PS() {
		if strings.Contains(p.Command, substr) {
			out = append(out, p)
		}
	}
	return out
}

// SwapPID re-labels process fromPID as toPID. toPID must be free — which it
// is right after the original VM is killed, the exact window the attacker
// uses. The process keeps its start time and command line.
func (s *System) SwapPID(fromPID, toPID int) error {
	p, ok := s.procs[fromPID]
	if !ok {
		return fmt.Errorf("%w: %d", ErrNoSuchProcess, fromPID)
	}
	if fromPID == toPID {
		return nil
	}
	if _, taken := s.procs[toPID]; taken {
		return fmt.Errorf("%w: %d", ErrPIDInUse, toPID)
	}
	delete(s.procs, fromPID)
	p.PID = toPID
	s.procs[toPID] = p
	return nil
}

// AppendHistory records a shell command in the host's history file.
func (s *System) AppendHistory(cmd string) {
	s.history = append(s.history, cmd)
}

// HistoryMatching returns history lines containing substr, oldest first —
// the attacker's `history | grep qemu` recon step.
func (s *System) HistoryMatching(substr string) []string {
	var out []string
	for _, h := range s.history {
		if strings.Contains(h, substr) {
			out = append(out, h)
		}
	}
	return out
}

// RemoveHistoryMatching deletes history lines containing substr and
// returns how many were removed — the attacker's selective hygiene
// (wiping the whole history would itself be suspicious).
func (s *System) RemoveHistoryMatching(substr string) int {
	kept := s.history[:0]
	removed := 0
	for _, h := range s.history {
		if strings.Contains(h, substr) {
			removed++
			continue
		}
		kept = append(kept, h)
	}
	s.history = kept
	return removed
}
