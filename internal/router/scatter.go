package router

import (
	"bytes"
	"encoding/json"
	"errors"
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
// (mergeLookup) so fuzzing can hammer it without sockets.

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

// mergeLookup reassembles scattered users/lookup responses. ids is the
// client's full list in order, groupOf[i] the body index serving ids[i],
// bodies the per-group JSON arrays. Each backend returns, for its subset,
// an in-order subsequence (unknown IDs dropped), so the merge walks the
// client's list and pops a group's head element exactly when its id
// matches — preserving order and duplicates, never duplicating an element,
// and dropping IDs no backend answered for. The output is byte-compatible
// with a single node's encoder: compact elements, "[]" when empty,
// trailing newline.
func mergeLookup(ids []int64, groupOf []int, bodies [][]byte) ([]byte, error) {
	if len(groupOf) != len(ids) {
		return nil, errMergeShape
	}
	elems := make([][]json.RawMessage, len(bodies))
	heads := make([][]int64, len(bodies))
	for g, body := range bodies {
		var raw []json.RawMessage
		if err := json.Unmarshal(body, &raw); err != nil {
			return nil, err
		}
		hs := make([]int64, len(raw))
		for i, e := range raw {
			var u struct {
				ID int64 `json:"id"`
			}
			if err := json.Unmarshal(e, &u); err != nil {
				return nil, err
			}
			hs[i] = u.ID
		}
		elems[g] = raw
		heads[g] = hs
	}
	next := make([]int, len(bodies))
	var out bytes.Buffer
	out.WriteByte('[')
	n := 0
	for i, id := range ids {
		g := groupOf[i]
		if g < 0 || g >= len(bodies) {
			return nil, errMergeShape
		}
		if next[g] < len(elems[g]) && heads[g][next[g]] == id {
			if n > 0 {
				out.WriteByte(',')
			}
			out.Write(bytes.TrimSpace(elems[g][next[g]]))
			next[g]++
			n++
		}
	}
	out.WriteString("]\n")
	return out.Bytes(), nil
}

var errMergeShape = errors.New("router: merge shape mismatch")
