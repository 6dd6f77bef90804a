package protocol

// The tenant picker is this repository's multi-application extension of
// the paper: when tasks of several applications (tenants) wait at a live
// node, a smooth round-robin picks whose task moves next, and the node's
// send port then picks where it goes exactly as for one application.

// PickTenant chooses which application's task a node takes next, by
// smooth round-robin over the applications with a task there.
// Applications are the caller's, indexed densely from 0: credit[a] is
// application a's entry in the node's ledger and tasks[a] how many of its
// tasks the node holds; key(a) is a's tie key.
//
// Each application with a task is credited 1, the richest is served — on
// a tie, the one with the smallest key — and pays back the round's total.
// So over any interval in which a set of applications stays eligible,
// each is served equally often; a lone eligible application is credited
// and debited the same amount, leaving the ledger as it was. The caller
// guarantees the node holds a task.
func PickTenant(credit, tasks []int64, key func(a int) uint64) int {
	if len(credit) == 1 {
		return 0 // inlined: a one-application node pays no call
	}
	return pickTenant(credit, tasks, key)
}

func pickTenant(credit, tasks []int64, key func(a int) uint64) int {
	best := -1
	var total int64
	for a := range credit {
		if tasks[a] <= 0 {
			continue
		}
		credit[a]++
		total++
		if best < 0 || credit[a] > credit[best] || credit[a] == credit[best] && key(a) < key(best) {
			best = a
		}
	}
	if best < 0 {
		panic("protocol: PickTenant with no eligible application")
	}
	credit[best] -= total
	return best
}
