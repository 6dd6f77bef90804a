// Package brute finds provably optimal schedules for tiny platforms by
// exhaustive search, cross-validating both the bandwidth-centric theorem
// and the protocol engine on small instances.
//
// The search explores every schedule valid under the paper's base model —
// at any moment a node may start computing a held task (if its CPU is
// idle) or start sending a held task to one child (if its send port is
// idle); tasks originate at the root and become usable at a child when
// their transfer completes — and returns the minimum makespan for a fixed
// task count, assuming ample buffers (as the theorem does).
//
// Two cross-checks follow, both exercised in the tests:
//
//   - no engine run may beat the brute-force makespan (engine schedules
//     are valid schedules);
//   - the brute-force makespan respects the steady-state bound
//     T·wtree − K for the additive startup constant K the theory allows.
//
// The state space is exponential; Search memoizes canonical states and
// enforces an explicit budget, so it is strictly a verification tool for
// platforms of a handful of nodes and tasks.
package brute

import (
	"fmt"
	"sort"
	"strings"

	"bwcs/internal/sim"
	"bwcs/internal/tree"
)

// Options bounds the search.
type Options struct {
	// MaxStates caps visited states; 0 means 2 million.
	MaxStates int
}

// Result is the outcome of an exhaustive search.
type Result struct {
	// Makespan is the provably minimal completion time for the task
	// count.
	Makespan sim.Time
	// States is the number of distinct canonical states visited.
	States int
}

// arrival is an in-flight task landing at a node.
type arrival struct {
	node int16
	at   sim.Time
}

// state is the searcher's mutable configuration. All times are absolute.
type state struct {
	held      []int16    // usable tasks per node (root holds the pool)
	cpuFree   []sim.Time // when each CPU frees
	portFree  []sim.Time // when each send port frees
	arrivals  []arrival  // in-flight transfers, unordered
	completed int16
}

type searcher struct {
	t         *tree.Tree
	tasks     int16
	best      sim.Time
	visited   map[string]sim.Time
	maxStates int
	overflow  bool
}

// Search returns the minimal makespan for running tasks tasks on t under
// the base model. It returns an error if the state budget is exhausted
// before the search completes (the result would not be proven optimal).
func Search(t *tree.Tree, tasks int, o Options) (*Result, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	if tasks < 1 {
		return nil, fmt.Errorf("brute: tasks %d < 1", tasks)
	}
	if tasks > 30 || t.Len() > 8 {
		return nil, fmt.Errorf("brute: %d tasks on %d nodes is beyond exhaustive search", tasks, t.Len())
	}
	maxStates := o.MaxStates
	if maxStates <= 0 {
		maxStates = 2_000_000
	}
	s := &searcher{
		t:         t,
		tasks:     int16(tasks),
		best:      1 << 40,
		visited:   make(map[string]sim.Time),
		maxStates: maxStates,
	}
	n := t.Len()
	st := &state{
		held:     make([]int16, n),
		cpuFree:  make([]sim.Time, n),
		portFree: make([]sim.Time, n),
	}
	st.held[0] = int16(tasks)
	s.search(st, 0, 0)
	if s.overflow {
		return nil, fmt.Errorf("brute: state budget %d exhausted", maxStates)
	}
	if s.best >= 1<<40 {
		return nil, fmt.Errorf("brute: no schedule found (searcher bug)")
	}
	return &Result{Makespan: s.best, States: len(s.visited)}, nil
}

// key canonicalizes a state relative to the current time. Arrivals are
// sorted so permutations collapse.
func (s *searcher) key(st *state, now sim.Time) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d|", st.completed)
	for i := range st.held {
		cpu, port := st.cpuFree[i]-now, st.portFree[i]-now
		if cpu < 0 {
			cpu = 0
		}
		if port < 0 {
			port = 0
		}
		fmt.Fprintf(&b, "%d,%d,%d;", st.held[i], cpu, port)
	}
	arr := make([]arrival, len(st.arrivals))
	copy(arr, st.arrivals)
	sort.Slice(arr, func(i, j int) bool {
		if arr[i].node != arr[j].node {
			return arr[i].node < arr[j].node
		}
		return arr[i].at < arr[j].at
	})
	for _, a := range arr {
		fmt.Fprintf(&b, "a%d@%d;", a.node, a.at-now)
	}
	return b.String()
}

// search explores all decisions from (st, now). makespan is the latest
// compute completion scheduled so far.
func (s *searcher) search(st *state, now, makespan sim.Time) {
	if s.overflow {
		return
	}
	if st.completed == s.tasks {
		if makespan < s.best {
			s.best = makespan
		}
		return
	}
	if now >= s.best || makespan >= s.best {
		return
	}
	k := s.key(st, now)
	if prev, ok := s.visited[k]; ok && prev <= now {
		return
	}
	if len(s.visited) >= s.maxStates {
		s.overflow = true
		return
	}
	s.visited[k] = now

	n := s.t.Len()
	for i := 0; i < n && !s.overflow; i++ {
		if st.held[i] == 0 {
			continue
		}
		ni := tree.NodeID(i)
		// Start computing at node i.
		if st.cpuFree[i] <= now {
			done := now + sim.Time(s.t.W(ni))
			savedCPU := st.cpuFree[i]
			st.held[i]--
			st.cpuFree[i] = done
			st.completed++
			ms := makespan
			if done > ms {
				ms = done
			}
			s.search(st, now, ms)
			st.completed--
			st.cpuFree[i] = savedCPU
			st.held[i]++
		}
		// Start sending to each child.
		if st.portFree[i] <= now {
			for _, child := range s.t.Children(ni) {
				land := now + sim.Time(s.t.C(child))
				savedPort := st.portFree[i]
				st.held[i]--
				st.portFree[i] = land
				st.arrivals = append(st.arrivals, arrival{node: int16(child), at: land})
				s.search(st, now, makespan)
				st.arrivals = st.arrivals[:len(st.arrivals)-1]
				st.portFree[i] = savedPort
				st.held[i]++
			}
		}
	}

	// Wait: advance to the next event (resource freeing or arrival) and
	// deliver any arrivals due by then.
	next := sim.Time(1 << 40)
	for i := 0; i < n; i++ {
		if st.cpuFree[i] > now && st.cpuFree[i] < next {
			next = st.cpuFree[i]
		}
		if st.portFree[i] > now && st.portFree[i] < next {
			next = st.portFree[i]
		}
	}
	for _, a := range st.arrivals {
		if a.at > now && a.at < next {
			next = a.at
		}
	}
	if next == 1<<40 {
		return // nothing pending; only reachable when actions were taken above
	}
	// Deliver arrivals due at the new time.
	var delivered []int16
	rest := st.arrivals[:0:0]
	for _, a := range st.arrivals {
		if a.at <= next {
			st.held[a.node]++
			delivered = append(delivered, a.node)
		} else {
			rest = append(rest, a)
		}
	}
	savedArr := st.arrivals
	st.arrivals = rest
	s.search(st, next, makespan)
	st.arrivals = savedArr
	for _, node := range delivered {
		st.held[node]--
	}
}
