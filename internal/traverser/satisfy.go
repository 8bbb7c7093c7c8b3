package traverser

import (
	"errors"

	"fluxion/internal/jobspec"
)

// This file memoises MatchSatisfy. The check is a dry walk of the whole
// machine (paper: "match satisfy"), and the scheduler runs it on every
// submit, yet its answer depends on neither the allocations nor the
// duration: a dry walk reads vertex sizes, status bits and the topology,
// and the request's shape (jobspec.Compiled.Shape). So the answers are
// kept per shape, tagged with the graph generations they were walked at:
// Graph.StructVersion, which every topology change moves (Attach, Detach,
// an edge added after Finalize), and Graph.StatusGen, which every status
// flip moves, through the traverser or on the graph directly. Both are
// read under the graph's reader lock, before the walk, so a change that
// lands after the walk moves them past the tag. Vertex properties, which
// a ranking policy may read, are fixed once the graph is finalized.

// satMemoCap bounds the shapes one memo holds; reaching it clears the
// memo.
const satMemoCap = 256

// satMemo is a traverser's satisfiability answers per request shape,
// valid at graph generations (structGen, statusGen); guarded by the
// traverser's writer lock.
type satMemo struct {
	structGen, statusGen uint64
	answers              map[string]bool
	// walks counts the dry walks run: the misses.
	walks int
}

// answer returns whether cjs could ever be satisfied, from the memo when
// it holds cjs's shape at the graph's current generations, otherwise from
// a dry walk whose answer it then keeps. Callers hold t.mu and the graph's
// reader lock.
func (m *satMemo) answer(t *Traverser, cjs *jobspec.Compiled) (bool, error) {
	structGen, statusGen := t.g.StructVersion(), t.g.StatusGen()
	if structGen != m.structGen || statusGen != m.statusGen {
		clear(m.answers)
		m.structGen, m.statusGen = structGen, statusGen
	}
	if ok, hit := m.answers[cjs.Shape()]; hit {
		return ok, nil
	}
	m.walks++
	ok, err := t.satisfyWalk(cjs)
	if err != nil {
		return false, err
	}
	if m.answers == nil {
		m.answers = make(map[string]bool)
	} else if len(m.answers) >= satMemoCap {
		clear(m.answers)
	}
	m.answers[cjs.Shape()] = ok
	return ok, nil
}

// satisfyWalk is the uncached check: one dry match at the graph's base
// time. Callers hold t.mu and the graph's reader lock.
func (t *Traverser) satisfyWalk(cjs *jobspec.Compiled) (bool, error) {
	_, err := t.tryMatchLocked(0, cjs, t.g.Base(), modeDry, nil)
	switch {
	case err == nil:
		return true, nil
	case errors.Is(err, ErrNoMatch):
		return false, nil
	default:
		return false, err
	}
}
