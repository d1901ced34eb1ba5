package router

import (
	"bytes"
	"encoding/json"
)

// The differential oracle of merge.go: the users/lookup merge the router
// ran before it spliced bytes — every body unmarshalled into raw elements
// and every element unmarshalled again for its id. Tests hold mergeLookup
// to these bytes on every body a node emits.

func mergeLookupJSON(ids []int64, groupOf []int, bodies [][]byte) ([]byte, error) {
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
