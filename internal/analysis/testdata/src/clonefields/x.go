// Package clonefields is an analyzer fixture with known violations.
package clonefields

type counter struct {
	hits  int
	names []string
}

func (c *counter) Clone() *counter { // want clonefields
	return &counter{hits: c.hits} // forgets names
}

type gauge struct {
	val  float64
	peak float64
}

// A whole-struct copy references every field.
func (g *gauge) Clone() *gauge {
	n := *g
	return &n
}

type histo struct {
	bins []int
	max  int
}

// Composite-literal field keys count as references.
func (h *histo) Clone() *histo {
	return &histo{bins: append([]int(nil), h.bins...), max: h.max}
}

type snap struct {
	a int
	b int
}

type snapState struct {
	A int
	B int
}

func (s *snap) Snapshot() snapState { // want clonefields
	return snapState{A: s.a} // drops b
}

func (s *snap) Restore(st snapState) { // want clonefields
	s.a = st.A // forgets to restore b
}

// The shared-lane variant of Snapshot is held to the same contract.
func (s *snap) SnapshotView() snapState { // want clonefields
	return snapState{B: s.b} // drops a
}

type stats struct {
	n   int
	ids []int
}

// A bare use of a value receiver copies the whole struct; fixing up one
// field afterwards still accounts for all of them.
func (s stats) Clone() stats {
	n := s
	n.ids = append([]int(nil), s.ids...)
	return n
}

type derived struct {
	raw    []byte
	cached int
}

//mctlint:ignore clonefields fixture: cached is derived from raw and recomputed lazily
func (d *derived) Clone() *derived {
	return &derived{raw: append([]byte(nil), d.raw...)}
}

type lines []string

// Non-struct receivers are out of scope.
func (l lines) Clone() lines {
	return append(lines(nil), l...)
}

// Plain functions named Clone are out of scope.
func Clone(x int) int { return x }
