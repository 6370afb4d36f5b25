package metric

// Levenshtein returns the edit distance between two strings: the minimum
// number of single-character insertions, deletions, and replacements needed
// to transform a into b. It is a true metric on strings. The paper uses it
// ("L-Edit") for the Last Names dataset.
//
// Characters are runes: a multibyte rune costs one edit, and each byte of
// invalid UTF-8 decodes to U+FFFD, as in a []rune conversion. Two paths
// compute the same value:
//
//   - When both strings are pure ASCII, the common prefix and suffix are
//     trimmed and, if the shorter remainder has at most 64 bytes, the
//     distance comes from the bit-parallel recurrence of Myers (J. ACM
//     46(3), 1999) in Hyyrö's form for global edit distance: a few word
//     operations per byte of the longer string, O(len) time. This path
//     never allocates.
//   - Any other pair (a non-ASCII or invalid byte, or a shorter ASCII
//     remainder longer than 64 bytes) takes the quadratic two-row dynamic
//     program over runes, which allocates its rune slices and rows. That
//     path never trims bytes: a shared lead byte of two different
//     multibyte runes is not a shared character.
func Levenshtein(a, b string) float64 {
	if !isASCII(a) || !isASCII(b) {
		return levenshteinRunes(a, b)
	}
	for len(a) > 0 && len(b) > 0 && a[0] == b[0] {
		a, b = a[1:], b[1:]
	}
	for len(a) > 0 && len(b) > 0 && a[len(a)-1] == b[len(b)-1] {
		a, b = a[:len(a)-1], b[:len(b)-1]
	}
	if len(a) > len(b) {
		a, b = b, a
	}
	switch {
	case len(a) <= 32:
		return float64(myers[uint32](a, b))
	case len(a) <= 64:
		return float64(myers[uint64](a, b))
	}
	return levenshteinRunes(a, b)
}

func isASCII(s string) bool {
	var or byte
	for i := 0; i < len(s); i++ {
		or |= s[i]
	}
	return or < 0x80
}

// myers is the edit distance between ASCII strings p and t, where p fits
// one W: len(p) <= 32 for uint32, len(p) <= 64 for uint64. Bit i of the
// vertical delta words pv/mv says whether D[i+1][j] - D[i][j] is +1/-1 in
// the current text column j; score follows D[len(p)][j] through the
// horizontal deltas of the last pattern row. The narrower word halves the
// match-mask table this zeroes on every call.
func myers[W uint32 | uint64](p, t string) int {
	if len(p) == 0 {
		return len(t)
	}
	var peq [128]W
	for i := 0; i < len(p); i++ {
		peq[p[i]&0x7f] |= 1 << uint(i)
	}
	last := uint(len(p) - 1)
	pv, mv := ^W(0), W(0)
	score := len(p)
	for i := 0; i < len(t); i++ {
		eq := peq[t[i]&0x7f]
		xv := eq | mv
		xh := (((eq & pv) + pv) ^ pv) | eq
		ph := mv | ^(xh | pv)
		mh := pv & xh
		score += int(ph>>last&1) - int(mh>>last&1)
		// Row 0 is D[0][j] = j, so its horizontal delta is always +1.
		ph = ph<<1 | 1
		mh <<= 1
		pv = mh | ^(xv | ph)
		mv = ph & xv
	}
	return score
}

// levenshteinRunes is the two-row dynamic program over the runes of a and b.
func levenshteinRunes(a, b string) float64 {
	ra, rb := []rune(a), []rune(b)
	if len(ra) == 0 {
		return float64(len(rb))
	}
	if len(rb) == 0 {
		return float64(len(ra))
	}
	prev := make([]int, len(rb)+1)
	cur := make([]int, len(rb)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(ra); i++ {
		cur[0] = i
		for j := 1; j <= len(rb); j++ {
			sub := prev[j-1]
			if ra[i-1] != rb[j-1] {
				sub++
			}
			del := prev[j] + 1
			ins := cur[j-1] + 1
			m := sub
			if del < m {
				m = del
			}
			if ins < m {
				m = ins
			}
			cur[j] = m
		}
		prev, cur = cur, prev
	}
	return float64(prev[len(rb)])
}
