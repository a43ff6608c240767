package fleet

import "fmt"

// Policy constrains destination choice for a placement decision.
type Policy struct {
	// RequireTrusted restricts candidates to hosts carrying the trusted
	// tag — the "move it to a clean machine first" step of the paper's
	// operational defence.
	RequireTrusted bool
	// AvoidGuests lists guests the moved guest must not share a host
	// with (anti-affinity).
	AvoidGuests []string
	// ExcludeHosts removes named hosts from the candidate set outright
	// (a migration's source host, a host in maintenance).
	ExcludeHosts []string
}

// PickHostFor deterministically chooses a host with room for a new
// memMB-sized guest under pol: candidates are filtered (excluded hosts,
// trust tag, free memory, anti-affinity) and ranked by most free memory,
// ties broken by name. This is the deploy-time half of the scheduler —
// the control plane places fresh guests through it.
func (f *Fleet) PickHostFor(memMB int64, pol Policy) (string, error) {
	avoid := make(map[string]bool, len(pol.AvoidGuests))
	for _, other := range pol.AvoidGuests {
		if o, ok := f.guests[other]; ok {
			avoid[o.host] = true
		}
	}
	excl := make(map[string]bool, len(pol.ExcludeHosts))
	for _, h := range pol.ExcludeHosts {
		excl[h] = true
	}
	best, bestFree := "", int64(0)
	for _, h := range f.order {
		name := h.spec.Name
		if excl[name] || avoid[name] {
			continue
		}
		if pol.RequireTrusted && !h.spec.Trusted {
			continue
		}
		free := h.free()
		if free < memMB {
			continue
		}
		if best == "" || free > bestFree {
			best, bestFree = name, free
		}
	}
	if best == "" {
		return "", fmt.Errorf("%w: for %d MB", ErrNoPlacement, memMB)
	}
	return best, nil
}

// PickHost deterministically chooses a destination for the named guest:
// the guest's current host is excluded, the guest itself never counts
// against its own anti-affinity, and the ranking is PickHostFor's
// (most free memory, ties broken by name). Determinism matters: sweeps
// re-run placement under different worker counts and must produce
// identical fleets.
func (f *Fleet) PickHost(guestName string, pol Policy) (string, error) {
	g, ok := f.guests[guestName]
	if !ok {
		return "", fmt.Errorf("%w: %q", ErrUnknownGuest, guestName)
	}
	avoid := make([]string, 0, len(pol.AvoidGuests))
	for _, other := range pol.AvoidGuests {
		if other != guestName {
			avoid = append(avoid, other)
		}
	}
	pol.AvoidGuests = avoid
	pol.ExcludeHosts = append(append([]string(nil), pol.ExcludeHosts...), g.host)
	host, err := f.PickHostFor(g.memMB, pol)
	if err != nil {
		return "", fmt.Errorf("%w: for %q", ErrNoPlacement, guestName)
	}
	return host, nil
}
