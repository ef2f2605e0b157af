package types

// Names is an immutable intern table over a closed vocabulary: the
// relation names of a program and the addresses of its nodes. Decoding
// through it (DecodeTuple, DecodeValue) returns the table's copy of a
// name instead of allocating a fresh string for it, so a decoded tuple
// whose relation and string arguments are all names costs only its Args
// slice. Bytes that are not a name decode exactly as without a table. A
// nil *Names holds nothing.
//
// A table is built once and never written afterwards, so any number of
// goroutines may decode through it; nothing decoded is ever added to it.
type Names struct {
	m map[string]string
	// max is the longest entry's length: a longer string cannot be in
	// the table, so its lookup is skipped.
	max int
}

// NewNames builds a table over the given strings.
func NewNames(names ...string) *Names {
	t := &Names{m: make(map[string]string, len(names))}
	for _, s := range names {
		t.m[s] = s
		t.max = max(t.max, len(s))
	}
	return t
}

// Intern returns the table's copy of string(b) when it holds one, and a
// fresh string otherwise. The lookup itself does not allocate.
func (t *Names) Intern(b []byte) string {
	if t != nil && len(b) <= t.max {
		if s, ok := t.m[string(b)]; ok {
			return s
		}
	}
	return string(b)
}
