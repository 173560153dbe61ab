package scenario

import (
	"sort"
	"strconv"
)

// Block is one sub-matrix of a composed spec: an independent axis list
// whose cross-product contributes its scenarios to the spec's space (see
// Spec.Blocks). Blocks let different scenario families carry different —
// dependent — axes: an fsm block declares machine/space axes the stock
// goals would reject, a treasure block omits the drift axis its servers
// cannot honor.
type Block struct {
	Axes []Axis `json:"axes"`
}

// canonicalBlock returns a deep copy of b in canonical form: axes sorted
// by name, values sorted lexicographically and deduped. Canonical form is
// what makes composed-spec identity content-derived — any authored
// ordering of the same block encodes, enumerates and fingerprints
// identically.
func canonicalBlock(b Block) Block {
	axes := make([]Axis, len(b.Axes))
	for i, ax := range b.Axes {
		vals := make([]string, len(ax.Values))
		copy(vals, ax.Values)
		sort.Strings(vals)
		kept := vals[:0]
		for j, v := range vals {
			if j == 0 || v != vals[j-1] {
				kept = append(kept, v)
			}
		}
		axes[i] = Axis{Name: ax.Name, Values: kept}
	}
	sort.Slice(axes, func(i, j int) bool { return axes[i].Name < axes[j].Name })
	return Block{Axes: axes}
}

// encodeBlock renders a canonical block injectively (length-prefixed
// fields, newline-delimited lines) — the comparison and sort key of
// canonicalization. Its lines are exactly the axis and value lines the
// fingerprint folds (see appendAxes).
func encodeBlock(b Block) string { return string(appendAxes(nil, b.Axes)) }

// appendAxes appends one length-prefixed line per axis name and per
// value: "axis=<len>:<name>\n" then "value=<len>:<value>\n" for each
// value, in order.
func appendAxes(dst []byte, axes []Axis) []byte {
	for _, ax := range axes {
		dst = appendField(dst, "axis=", ax.Name)
		for _, v := range ax.Values {
			dst = appendField(dst, "value=", v)
		}
	}
	return dst
}

// appendField appends the line "<key><len(val)>:<val>\n".
func appendField(dst []byte, key, val string) []byte {
	dst = append(dst, key...)
	dst = strconv.AppendInt(dst, int64(len(val)), 10)
	dst = append(dst, ':')
	dst = append(dst, val...)
	return append(dst, '\n')
}

// sortBlocks orders canonical blocks by their encoding, computing each
// block's encoding once rather than twice per comparison. Equal keys
// mean identical blocks (the encoding is injective), so stability does
// not matter.
func sortBlocks(blocks []Block) {
	type keyed struct {
		key string
		b   Block
	}
	ks := make([]keyed, len(blocks))
	for i, b := range blocks {
		ks[i] = keyed{encodeBlock(b), b}
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i].key < ks[j].key })
	for i := range ks {
		blocks[i] = ks[i].b
	}
}

// sameAxisNames reports whether two canonical blocks declare the same
// axis names (both are sorted, so positional comparison suffices).
func sameAxisNames(a, b Block) bool {
	if len(a.Axes) != len(b.Axes) {
		return false
	}
	for i := range a.Axes {
		if a.Axes[i].Name != b.Axes[i].Name {
			return false
		}
	}
	return true
}

// sameValues reports whether two canonical axes hold identical value
// lists.
func sameValues(a, b Axis) bool {
	if len(a.Values) != len(b.Values) {
		return false
	}
	for i := range a.Values {
		if a.Values[i] != b.Values[i] {
			return false
		}
	}
	return true
}

// tryMerge merges two canonical blocks when they describe slices of one
// larger cross-product: identical axis names with identical values on
// every axis except at most one, which takes the union. It returns the
// merged block (re-canonicalized) and whether the merge applied.
func tryMerge(a, b Block) (Block, bool) {
	if !sameAxisNames(a, b) {
		return Block{}, false
	}
	diff := -1
	for i := range a.Axes {
		if !sameValues(a.Axes[i], b.Axes[i]) {
			if diff >= 0 {
				return Block{}, false
			}
			diff = i
		}
	}
	if diff < 0 {
		// Identical blocks: the merge is a dedup.
		return a, true
	}
	merged := Block{Axes: make([]Axis, len(a.Axes))}
	copy(merged.Axes, a.Axes)
	union := append(append([]string{}, a.Axes[diff].Values...), b.Axes[diff].Values...)
	merged.Axes[diff] = Axis{Name: a.Axes[diff].Name, Values: union}
	return canonicalBlock(merged), true
}

// Canonical returns the spec in canonical form. Flat specs are returned
// unchanged — their authored axis order is their enumeration order and
// fixes the index mapping, so it must stay byte-stable. Composed specs
// are rebuilt: every block canonicalized (axes sorted by name, values
// sorted and deduped), identical blocks deduped, blocks that are
// value-slices of one cross-product merged (deterministic fixpoint over
// the sorted block list), and the block list sorted by its injective
// encoding. A composition that reduces to exactly one block collapses to
// a flat spec, which is what makes a composed spec and its flat
// equivalent share a fingerprint — and through it, shards and cache
// entries. (Canonicalization is syntactic: multi-block compositions that
// cover the same scenario set through structurally different partitions
// may still fingerprint apart; per-scenario cache keys, being
// content-derived, are shared regardless.)
func (s *Spec) Canonical() *Spec {
	if len(s.Blocks) == 0 {
		return s
	}
	blocks := make([]Block, len(s.Blocks))
	for i, b := range s.Blocks {
		blocks[i] = canonicalBlock(b)
	}
	for {
		sortBlocks(blocks)
		merged := false
	scan:
		for i := 0; i < len(blocks) && !merged; i++ {
			for j := i + 1; j < len(blocks); j++ {
				if m, ok := tryMerge(blocks[i], blocks[j]); ok {
					blocks[i] = m
					blocks = append(blocks[:j], blocks[j+1:]...)
					merged = true
					break scan
				}
			}
		}
		if !merged {
			break
		}
	}
	out := &Spec{Name: s.Name, Seeds: s.Seeds, BaseSeed: s.BaseSeed, Window: s.Window}
	if len(blocks) == 1 {
		out.Axes = blocks[0].Axes
	} else {
		out.Blocks = blocks
	}
	return out
}

// AxisView is one entry of AxesUnion: an axis with the union of its
// values across the whole spec, plus whether every block carries it (an
// axis absent from some block varies implicitly — the scenarios of that
// block take the axis's default).
type AxisView struct {
	Axis
	Everywhere bool
}

// AxesUnion flattens the spec's dimensions into one view per axis name,
// in first-appearance order with values in first-appearance order — the
// header row of any tabular rendering of a sweep. For flat specs it is
// exactly the axis list.
func (s *Spec) AxesUnion() []AxisView {
	if len(s.Blocks) == 0 {
		out := make([]AxisView, len(s.Axes))
		for i, ax := range s.Axes {
			out[i] = AxisView{Axis: ax, Everywhere: true}
		}
		return out
	}
	var order []string
	byName := make(map[string]*AxisView)
	seenIn := make(map[string]int)
	for _, b := range s.Blocks {
		for _, ax := range b.Axes {
			v := byName[ax.Name]
			if v == nil {
				v = &AxisView{Axis: Axis{Name: ax.Name}}
				byName[ax.Name] = v
				order = append(order, ax.Name)
			}
			seenIn[ax.Name]++
			for _, val := range ax.Values {
				dup := false
				for _, have := range v.Values {
					if have == val {
						dup = true
						break
					}
				}
				if !dup {
					v.Values = append(v.Values, val)
				}
			}
		}
	}
	out := make([]AxisView, len(order))
	for i, name := range order {
		v := byName[name]
		v.Everywhere = seenIn[name] == len(s.Blocks)
		out[i] = *v
	}
	return out
}
