package protocol

// The tenant picker is this repository's multi-application extension of
// the paper: when tasks of several applications (tenants) wait at one
// node, a smooth weighted round-robin picks whose task moves next, and
// the node's send port then picks where it goes exactly as for one
// application. Both drivers call it: the engine over per-node task counts,
// a live node over its per-application rings.

// Weight is the one weight rule: an application's sharing weight as
// configured, absent or zero weighing 1. Drivers reject negative weights
// before a run; they weigh 1 here too.
func Weight(w int64) int64 {
	if w <= 0 {
		return 1
	}
	return w
}

// PickTenant chooses which application's task a node takes next, by
// smooth weighted round-robin over the applications with a task there.
// Applications are the driver's, indexed densely from 0: credit[a] is
// application a's entry in the node's ledger, weight[a] its configured
// weight (see Weight; a nil weight weighs every application 1) and
// tasks[a] how many of its tasks the node holds. key(a) is a's tie key; a
// nil key ties by index.
//
// Each application with a task is credited its weight, the richest is
// served — on a tie, the one with the smallest key — and pays back the
// round's total. So over any interval in which a set of applications
// stays eligible, each is served in proportion to its weight; a lone
// eligible application is credited and debited the same amount, leaving
// the ledger as it was. The caller guarantees the node holds a task.
func PickTenant(credit, weight, tasks []int64, key func(a int) uint64) int {
	if len(credit) == 1 {
		return 0 // inlined: a one-application node pays no call
	}
	return pickTenant(credit, weight, tasks, key)
}

func pickTenant(credit, weight, tasks []int64, key func(a int) uint64) int {
	best := -1
	var total int64
	for a := range credit {
		if tasks[a] <= 0 {
			continue
		}
		w := int64(1)
		if weight != nil {
			w = Weight(weight[a])
		}
		credit[a] += w
		total += w
		if best < 0 || credit[a] > credit[best] || credit[a] == credit[best] && key != nil && key(a) < key(best) {
			best = a
		}
	}
	if best < 0 {
		panic("protocol: PickTenant with no eligible application")
	}
	credit[best] -= total
	return best
}
