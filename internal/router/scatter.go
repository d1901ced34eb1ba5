package router

import (
	"net/http"
	"strconv"
	"strings"
	"sync"
)

// users/lookup scatter-gather. A batch lookup names accounts across the
// whole ring, so the router splits the ID list by slot owner, fans the
// subsets out in parallel (each subset with the usual failover/hedge
// machinery), and merges the answers back into the exact byte shape a
// single node would have produced: input order preserved, duplicates
// preserved, unknown IDs silently dropped. The merge is a pure function
// (mergeLookup, merge.go) so fuzzing can hammer it without sockets.

// lookupBatchCap mirrors twitterapi.UsersLookupBatchSize. Duplicated by
// value, not import: the router is deliberately a leaf that speaks only
// the wire protocol, and the batch size is wire-visible contract (the
// "too many ids" error), not implementation detail.
const lookupBatchCap = 100

// serveLookup routes users/lookup: single-owner batches forward whole,
// multi-owner batches scatter-gather.
func (rt *Router) serveLookup(w http.ResponseWriter, r *http.Request) {
	ids, ok := parseIDList(r.URL.Query().Get("user_id"))
	if !ok {
		// Missing, malformed or oversized list: every node emits the
		// identical error, so let one say it.
		rt.serveAny(w, r)
		return
	}

	// Group positions by owning backend, first-appearance order; a group
	// routes by the slot of its first ID (every slot of a group has the same
	// owner, so the same holders).
	groupOf := make([]int, len(ids))
	var slots []int
	ownerGroup := make(map[int]int, len(rt.backends))
	for i, id := range ids {
		s := rt.ring.Slot(id)
		o := rt.ring.Owner(s)
		g, seen := ownerGroup[o]
		if !seen {
			g = len(slots)
			ownerGroup[o] = g
			slots = append(slots, s)
		}
		groupOf[i] = g
	}

	if len(slots) == 1 {
		first, second := rt.route(slots[0], false)
		resp, err := rt.do(r.Context(), r, first, second, true)
		rt.reply(w, resp, err)
		return
	}
	incr(rt.m.scatter)

	// Build one sub-request per owner carrying its subset of the ID list
	// (subset order = input order, duplicates kept — the backend's own
	// order/duplicate handling then lines up with the merge).
	subIDs := make([][]string, len(slots))
	for i, id := range ids {
		subIDs[groupOf[i]] = append(subIDs[groupOf[i]], strconv.FormatInt(id, 10))
	}
	type part struct {
		resp *upstreamResponse
		err  error
	}
	parts := make([]part, len(slots))
	var wg sync.WaitGroup
	for g, slot := range slots {
		q := r.URL.Query()
		q.Set("user_id", strings.Join(subIDs[g], ","))
		sub, err := http.NewRequestWithContext(r.Context(), http.MethodGet,
			pathUsersLookup+"?"+q.Encode(), nil)
		if err != nil {
			parts[g] = part{nil, err}
			continue
		}
		sub.Header = r.Header.Clone()
		first, second := rt.route(slot, false)
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			resp, err := rt.do(sub.Context(), sub, first, second, true)
			parts[g] = part{resp, err}
		}(g)
	}
	wg.Wait()

	bodies := make([][]byte, len(slots))
	for g := range parts {
		if parts[g].err != nil || parts[g].resp == nil {
			rt.overCapacity(w)
			return
		}
		if parts[g].resp.status != http.StatusOK {
			// A 429 (or any backend-spoken refusal) on any shard refuses
			// the whole batch, exactly as a single node would have.
			rt.reply(w, parts[g].resp, nil)
			return
		}
		bodies[g] = parts[g].resp.body
	}

	merged, err := mergeLookup(ids, groupOf, bodies)
	if err != nil {
		rt.overCapacity(w)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	writeBody(w, http.StatusOK, merged)
}

// parseIDList mirrors the backend's user_id list parsing (split on comma,
// trim space, base-10) plus its size gate. ok=false means the backend
// would reject the request — the router then forwards it untouched so the
// client sees the backend's canonical error bytes.
func parseIDList(raw string) ([]int64, bool) {
	if raw == "" {
		return nil, false
	}
	parts := strings.Split(raw, ",")
	if len(parts) > lookupBatchCap {
		return nil, false
	}
	ids := make([]int64, 0, len(parts))
	for _, part := range parts {
		v, err := strconv.ParseInt(strings.TrimSpace(part), 10, 64)
		if err != nil {
			return nil, false
		}
		ids = append(ids, v)
	}
	return ids, true
}
