package planner

import (
	"fmt"
	"slices"
	"sync"
)

// Multi aggregates one Planner per resource type over a common time range.
// Fluxion attaches a Multi to high-level resource vertices (cluster, rack,
// node) as a pruning filter: each member planner tracks the aggregate
// amount of one low-level resource type available in the subtree (paper
// §3.4), and the root's Multi drives PlannerMultiAvailTimeFirst when
// searching for the earliest time a whole request can be satisfied.
//
// Members are keyed by interned resource type ID (the resource graph's
// intern table) and held in a dense table indexed by that ID. A multi-span
// is one span per requested member; its owner (the traverser's
// allocation) records the member span IDs, so the Multi keeps no span
// registry of its own. The lock guards the member table against Update
// adding a member; member planners lock themselves.
type Multi struct {
	mu      sync.RWMutex
	base    int64
	horizon int64
	ids     []int32    // member type IDs, ascending
	byID    []*Planner // indexed by type ID; nil for untracked types
}

// NewMulti creates a Multi covering [base, base+horizon) with one member
// planner per entry of totals (type ID -> pool size). Negative IDs and
// non-positive totals are rejected.
func NewMulti(base, horizon int64, totals map[int32]int64) (*Multi, error) {
	if len(totals) == 0 {
		return nil, fmt.Errorf("%w: no resource types", ErrInvalid)
	}
	m := &Multi{base: base, horizon: horizon}
	for id, total := range totals {
		if err := m.addMember(id, total); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// addMember installs a member planner of total units for type id; callers
// hold m.mu or own m exclusively.
func (m *Multi) addMember(id int32, total int64) error {
	if id < 0 {
		return fmt.Errorf("%w: type ID %d", ErrInvalid, id)
	}
	p, err := New(m.base, m.horizon, total, "")
	if err != nil {
		return fmt.Errorf("type %d: %w", id, err)
	}
	if int(id) >= len(m.byID) {
		m.byID = append(m.byID, make([]*Planner, int(id)+1-len(m.byID))...)
	}
	m.byID[id] = p
	i, _ := slices.BinarySearch(m.ids, id)
	m.ids = slices.Insert(m.ids, i, id)
	return nil
}

// IDs returns the member type IDs in ascending order.
func (m *Multi) IDs() []int32 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return slices.Clone(m.ids)
}

// PlannerByID returns the member planner for an interned type ID, or nil
// when the type is untracked or m is nil.
func (m *Multi) PlannerByID(id int32) *Planner {
	if m == nil {
		return nil
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	if id < 0 || int(id) >= len(m.byID) {
		return nil
	}
	return m.byID[id]
}

// AvailPointTimeAfter returns the earliest member change point strictly
// after `after` at which units[i] of every member type ids[i] fit for
// duration; every ids[i] must be a member. Repeated calls with the
// previous result walk the union of the members' fitting change points
// (paper §3.4, Figure 2), skipping those where some other member is short.
//
// It is paper Algorithm 1 generalised over members: the first candidate is
// the earliest fitting change point of any member, then every member in
// turn pushes the candidate to its own earliest fit at or after it until
// no member moves it. A member's fit can only get worse as a window slides
// between two of its change points, so the fixpoint is the first union
// point where all members fit.
func (m *Multi) AvailPointTimeAfter(after, duration int64, ids []int32, units []int64) (int64, error) {
	if len(ids) == 0 || len(ids) != len(units) {
		return -1, fmt.Errorf("%w: %d type IDs vs %d counts", ErrInvalid, len(ids), len(units))
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	t := int64(-1)
	for i, id := range ids {
		if id < 0 || int(id) >= len(m.byID) || m.byID[id] == nil {
			return -1, fmt.Errorf("%w: untracked type ID %d", ErrInvalid, id)
		}
		if x, err := m.byID[id].AvailPointTimeAfter(after, duration, units[i]); err == nil && (t < 0 || x < t) {
			t = x
		}
	}
	if t < 0 {
		return -1, ErrNoSpace
	}
	for {
		next := t
		for i, id := range ids {
			x, err := m.byID[id].AvailTimeFirst(t, duration, units[i])
			if err != nil {
				return -1, ErrNoSpace
			}
			next = max(next, x)
		}
		if next == t {
			return t, nil
		}
		t = next
	}
}

// Update grows or shrinks the pool of type id by delta units across the
// horizon, creating the member planner on first growth of an untracked
// type.
func (m *Multi) Update(id int32, delta int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if id >= 0 && int(id) < len(m.byID) && m.byID[id] != nil {
		return m.byID[id].Update(delta)
	}
	if delta <= 0 {
		return fmt.Errorf("%w: untracked type ID %d", ErrInvalid, id)
	}
	return m.addMember(id, delta)
}
