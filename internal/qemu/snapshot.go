package qemu

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"cloudskulk/internal/mem"
)

// Snapshot errors.
var (
	ErrNoSnapshot  = errors.New("qemu: no such snapshot")
	ErrSnapshotDup = errors.New("qemu: snapshot already exists")
)

// Snapshot is a savevm checkpoint: full RAM contents plus run state.
type Snapshot struct {
	Name    string
	TakenAt time.Duration
	state   State
	ram     []mem.Content
	// gen is the RAM's mutation generation at save time. While it has not
	// moved, no page has changed, and a restore knows in O(1) that it has
	// nothing to write back.
	gen uint64
}

// equalRAM reports whether the space's logical contents still match the
// checkpoint, without allocating a second snapshot to compare against.
func (s *Snapshot) equalRAM(ram *mem.Space) bool {
	if ram.NumPages() != len(s.ram) {
		return false
	}
	for p, c := range s.ram {
		if ram.MustRead(p) != c {
			return false
		}
	}
	return true
}

// SaveSnapshot checkpoints a running or paused guest under the given name
// (the monitor's savevm).
func (v *VM) SaveSnapshot(name string) error {
	if v.state != StateRunning && v.state != StatePaused {
		return fmt.Errorf("%w: savevm from %v", ErrBadState, v.state)
	}
	if name == "" {
		return fmt.Errorf("%w: empty snapshot name", ErrNoSnapshot)
	}
	if _, dup := v.snapshots[name]; dup {
		return fmt.Errorf("%w: %q", ErrSnapshotDup, name)
	}
	if v.snapshots == nil {
		v.snapshots = make(map[string]*Snapshot)
	}
	v.snapshots[name] = &Snapshot{
		Name:    name,
		TakenAt: v.Engine().Now(),
		state:   v.state,
		ram:     v.ram.Snapshot(),
		gen:     v.ram.Generation(),
	}
	return nil
}

// LoadSnapshot restores a checkpoint (the monitor's loadvm): RAM contents
// and run state return to the snapshot's. Restoration writes through the
// memory layer, so KSM sharing detaches correctly.
func (v *VM) LoadSnapshot(name string) error {
	if v.state != StateRunning && v.state != StatePaused {
		return fmt.Errorf("%w: loadvm from %v", ErrBadState, v.state)
	}
	snap, ok := v.snapshots[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoSnapshot, name)
	}
	// Equality gate: when RAM still matches the checkpoint (O(1) when the
	// generation has not moved, a read-only verify otherwise) there is
	// nothing to write back, so the restore skips the page-store loop and
	// its COW breaks entirely.
	if v.ram.Generation() != snap.gen && !snap.equalRAM(v.ram) {
		for p, c := range snap.ram {
			if _, err := v.ram.Write(p, c); err != nil {
				return err
			}
		}
	}
	v.ram.ClearDirty()
	v.state = snap.state
	return nil
}

// DeleteSnapshot removes a checkpoint (the monitor's delvm).
func (v *VM) DeleteSnapshot(name string) error {
	if _, ok := v.snapshots[name]; !ok {
		return fmt.Errorf("%w: %q", ErrNoSnapshot, name)
	}
	delete(v.snapshots, name)
	return nil
}

// Snapshots lists checkpoints sorted by name.
func (v *VM) Snapshots() []*Snapshot {
	out := make([]*Snapshot, 0, len(v.snapshots))
	for _, s := range v.snapshots {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
