package analytics

import (
	"errors"
	"sort"

	"loopscope/pkg/loopscope"
)

// topK is a space-saving heavy-hitter counter (Metwally et al.): it
// tracks at most Cap keys; when a new key arrives at capacity it
// evicts the key with the smallest count and inherits that count as
// its overestimation error. For any key actually among the heaviest,
// Count is an overestimate by at most Err — the documented bound the
// stats API reports alongside every row.
//
// Merging two summaries sums counts and errors for shared keys, keeps
// the union's heaviest Cap keys, and folds the dropped keys' weight
// into the survivors' error the same way eviction does. The result is
// order-insensitive in which keys survive only up to ties; the count
// and error bounds hold regardless of merge order.
type topK struct {
	Cap   int                   `json:"cap"`
	Items []loopscope.TopPrefix `json:"items,omitempty"`
	idx   map[string]int        // key -> Items index; rebuilt after decode
}

// newTopK returns a counter tracking at most cap keys (minimum 1).
func newTopK(cap int) *topK {
	if cap < 1 {
		cap = 1
	}
	return &topK{Cap: cap, idx: make(map[string]int)}
}

// ensureIdx rebuilds the key index after a decode left it nil.
func (t *topK) ensureIdx() {
	if t.idx != nil {
		return
	}
	t.idx = make(map[string]int, len(t.Items))
	for i, it := range t.Items {
		t.idx[it.Key] = i
	}
}

// add counts one occurrence of key.
func (t *topK) add(key string) {
	t.ensureIdx()
	if i, ok := t.idx[key]; ok {
		t.Items[i].Count++
		return
	}
	if len(t.Items) < t.Cap {
		t.idx[key] = len(t.Items)
		t.Items = append(t.Items, loopscope.TopPrefix{Key: key, Count: 1})
		return
	}
	// Evict the minimum-count key; the newcomer inherits its count as
	// overestimation error.
	min := 0
	for i := 1; i < len(t.Items); i++ {
		if t.Items[i].Count < t.Items[min].Count {
			min = i
		}
	}
	evicted := t.Items[min]
	delete(t.idx, evicted.Key)
	t.Items[min] = loopscope.TopPrefix{Key: key, Count: evicted.Count + 1, Err: evicted.Count}
	t.idx[key] = min
}

// merge folds other into t.
func (t *topK) merge(other *topK) {
	if other == nil || len(other.Items) == 0 {
		return
	}
	t.ensureIdx()
	merged := make(map[string]loopscope.TopPrefix, len(t.Items)+len(other.Items))
	for _, it := range t.Items {
		merged[it.Key] = it
	}
	for _, it := range other.Items {
		if have, ok := merged[it.Key]; ok {
			have.Count += it.Count
			have.Err += it.Err
			merged[it.Key] = have
		} else {
			merged[it.Key] = it
		}
	}
	items := make([]loopscope.TopPrefix, 0, len(merged))
	for _, it := range merged {
		items = append(items, it)
	}
	sort.Slice(items, func(i, j int) bool {
		if items[i].Count != items[j].Count {
			return items[i].Count > items[j].Count
		}
		return items[i].Key < items[j].Key
	})
	if len(items) > t.Cap {
		// Dropped keys could have been any of the survivors undercounted
		// elsewhere: fold the largest dropped count into every survivor's
		// error bound, exactly like eviction does.
		spill := items[t.Cap].Count
		items = items[:t.Cap]
		for i := range items {
			items[i].Err += spill
		}
	}
	t.Items = items
	t.idx = nil
	t.ensureIdx()
}

// top returns the tracked keys, heaviest first (ties by key).
func (t *topK) top() []loopscope.TopPrefix {
	out := make([]loopscope.TopPrefix, len(t.Items))
	copy(out, t.Items)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Key < out[j].Key
	})
	return out
}

// validate rejects impossible images from a snapshot.
func (t *topK) validate() error {
	if t.Cap < 1 || t.Cap > 1<<16 {
		return errors.New("analytics: top-k capacity out of range")
	}
	if len(t.Items) > t.Cap {
		return errors.New("analytics: top-k holds more keys than its capacity")
	}
	seen := make(map[string]bool, len(t.Items))
	for _, it := range t.Items {
		if it.Key == "" || seen[it.Key] {
			return errors.New("analytics: top-k has empty or duplicate key")
		}
		if it.Err > it.Count {
			return errors.New("analytics: top-k error bound exceeds count")
		}
		seen[it.Key] = true
	}
	return nil
}
