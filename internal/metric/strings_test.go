package metric_test

import (
	"math/rand"
	"strings"
	"testing"

	"mccatch/internal/data"
	"mccatch/internal/metric"
)

// levenshteinDP is the two-row dynamic program over runes that
// metric.Levenshtein must reproduce on every input.
func levenshteinDP(a, b string) float64 {
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

func checkAgainstDP(t *testing.T, a, b string) {
	t.Helper()
	want := levenshteinDP(a, b)
	if got := metric.Levenshtein(a, b); got != want {
		t.Fatalf("Levenshtein(%q, %q) = %v, want %v", a, b, got, want)
	}
	if got := metric.Levenshtein(b, a); got != want {
		t.Fatalf("Levenshtein(%q, %q) = %v, want %v (asymmetric)", b, a, got, want)
	}
}

// fenced returns n bytes framed by open and close, so two words with
// different frames keep all their bytes through prefix/suffix trimming.
func fenced(open, close byte, n int, body string) string {
	return string(open) + strings.Repeat(body, n)[:n-2] + string(close)
}

func FuzzLevenshtein(f *testing.F) {
	seeds := [][2]string{
		{"", ""},
		{"", "abc"},
		{"smith", "smith"},
		{"kitten", "sitting"},
		// The word-size edges: the shorter side is 31, 32, 33, 63, 64 or
		// 65 bytes after trimming, against a longer reshuffled text.
		{fenced('<', '>', 31, "abcde"), fenced('[', ']', 40, "edcba")},
		{fenced('<', '>', 32, "abcde"), fenced('[', ']', 40, "edcba")},
		{fenced('<', '>', 33, "abcde"), fenced('[', ']', 40, "edcba")},
		{fenced('<', '>', 63, "abcde"), fenced('[', ']', 70, "edcba")},
		{fenced('<', '>', 64, "abcde"), fenced('[', ']', 70, "edcba")},
		{fenced('<', '>', 65, "abcde"), fenced('[', ']', 70, "edcba")},
		{fenced('<', '>', 64, "ab"), fenced('<', ']', 64, "ba")},
		{"a\x00b\x7f", "\x7fb\x00a"},
		{"\x00\x00", "\x7f"},
		{"garcía", "garcia"},
		{"\xff", "\xfe"},
		{"\x80", "\x00"},
		{"é", "ê"},
		{"müller", "mueller"},
		{"abc", "abcé"},
		{"zoë", "zoe\xff"},
		{"ab\xc3", "ab\xc3\xa9"},
	}
	for _, s := range seeds {
		f.Add(s[0], s[1])
	}
	f.Fuzz(func(t *testing.T, a, b string) {
		checkAgainstDP(t, a, b)
	})
}

// TestLevenshteinMatchesDPRandom draws ASCII pairs across both word sizes
// (32 and 64 bytes) over alphabets small enough to force long matching
// runs.
func TestLevenshteinMatchesDPRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	alphabets := []string{"ab", "abc", "acgt", "\x00\x7fa", "abcdefghijklmnopqrstuvwxyz"}
	word := func(alpha string) string {
		w := make([]byte, rng.Intn(131))
		for i := range w {
			w[i] = alpha[rng.Intn(len(alpha))]
		}
		return string(w)
	}
	trials := 4000
	if testing.Short() {
		trials = 1000
	}
	for i := 0; i < trials; i++ {
		alpha := alphabets[rng.Intn(len(alphabets))]
		checkAgainstDP(t, word(alpha), word(alpha))
	}
}

func TestLevenshteinMatchesDPLastNames(t *testing.T) {
	words := data.LastNames(2000, 20, 1).Words[:300]
	for _, a := range words {
		for _, b := range words {
			if got, want := metric.Levenshtein(a, b), levenshteinDP(a, b); got != want {
				t.Fatalf("Levenshtein(%q, %q) = %v, want %v", a, b, got, want)
			}
		}
	}
}

// TestLevenshteinRuneSemantics pins the rune-level values a byte-level
// shortcut would get wrong.
func TestLevenshteinRuneSemantics(t *testing.T) {
	cases := []struct {
		a, b string
		want float64
	}{
		{"\xff", "\xfe", 0},         // each invalid byte is U+FFFD
		{"é", "ê", 1},               // shared lead byte 0xC3, different runes
		{"\xc3\xa9", "\xc3", 1},     // truncated rune: U+FFFD vs é
		{"naïve", "naive", 1},       // two bytes, one rune, one edit
		{"\x00\x7f", "\x7f\x00", 2}, // ASCII extremes go the bit-parallel way
		{"\x80", "\x00", 1},         // 0x80 is U+FFFD, not an alias of NUL
	}
	for _, c := range cases {
		if got := metric.Levenshtein(c.a, c.b); got != c.want {
			t.Errorf("Levenshtein(%q, %q) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

// TestLevenshteinZeroAlloc pins the ASCII fast path allocation-free: the
// shorter side has at most 64 bytes, directly or after trimming.
func TestLevenshteinZeroAlloc(t *testing.T) {
	pairs := [][2]string{
		{"brzezinski", "breszinsky"},
		{"", "abc"},
		{strings.Repeat("ab", 32), strings.Repeat("ba", 50)},
		{strings.Repeat("x", 200), strings.Repeat("x", 200) + "y"},
	}
	for _, p := range pairs {
		if n := testing.AllocsPerRun(100, func() { metric.Levenshtein(p[0], p[1]) }); n != 0 {
			t.Errorf("Levenshtein(%q, %q) allocates %v times per call", p[0], p[1], n)
		}
	}
}
