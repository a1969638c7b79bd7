package insitu

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// parseMismatch is empty when parseFloat(s) gives strconv.ParseFloat(s,
// 64)'s bits and fails exactly when it fails, with the same error text, and
// describes the difference otherwise.
func parseMismatch(s string) string {
	got, err := parseFloat([]byte(s))
	want, wantErr := strconv.ParseFloat(s, 64)
	if math.Float64bits(got) == math.Float64bits(want) && (err != nil) == (wantErr != nil) &&
		(err == nil || err.Error() == wantErr.Error()) {
		return ""
	}
	return fmt.Sprintf("parseFloat(%q) = %v (%#016x), %v; strconv %v (%#016x), %v",
		s, got, math.Float64bits(got), err, want, math.Float64bits(want), wantErr)
}

// floatEdges are inputs at the kernel's edges: the smallest subnormal and
// the halfway points around it, the largest finite value and the first
// that rounds to +Inf, an int just past 2^53, and the grammar it leaves to
// strconv.
var floatEdges = []string{
	"4.9e-324", "5e-324", "2.4703282292062327e-324", "2.4703282292062328e-324", "1e-400",
	"2.2250738585072011e-308", "2.2250738585072014e-308",
	"1.7976931348623157e308", "1.7976931348623158e308", "1.7976931348623159e308", "1e309", "-1e309",
	"9007199254740993", "9007199254740992", "9007199254740995", "1e23", "8.589973e9",
	"0", "-0", "+0", "0.0", "0e999", "-0e-999", ".5", "5.", ".", "-.e1", "+", "", "1e", "1e+", "1e-5x",
	"1234567890123456789", "12345678901234567890", "0.00000000000000000001234567890123456789",
	"1.0000000000000000000", "1_0", "0x1p3", "0X1P-3", "inf", "-Inf", "+infinity", "nan", "NaN",
	"1e347", "1e348", "1e-348", "1e-349", "9999999999999999999e-348", "1e-324", "1.5e-323",
	"1..2", "1.2.3", "1e5.5", "--1", "+-1", " 1", "1 ", "1\x00",
}

// FuzzParseFloat holds the float kernel to strconv.ParseFloat on any input:
// the same bits, and an error exactly when strconv errs.
func FuzzParseFloat(f *testing.F) {
	for _, s := range floatEdges {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if m := parseMismatch(s); m != "" {
			t.Fatal(m)
		}
	})
}

// TestParseFloatMatchesStrconv runs the edge list and 3 M seeded random
// inputs — random bits in shortest 'g' form, random 1–19 digit mantissas
// scaled by random decimal exponents (subnormals, halfway points and
// overflow included), and values in 'f' form at random precision — through
// parseFloat and strconv.ParseFloat (150 k of them under -race).
func TestParseFloatMatchesStrconv(t *testing.T) {
	check := func(s string) {
		if m := parseMismatch(s); m != "" {
			t.Fatal(m)
		}
	}
	for _, s := range floatEdges {
		check(s)
	}
	rounds := 1_000_000
	if raceEnabled {
		// One goroutine and no shared memory: the race detector has nothing
		// to find here, and it makes each round ~8× slower.
		rounds /= 20
	}
	rng := rand.New(rand.NewSource(1))
	buf := make([]byte, 0, 64)
	for i := 0; i < rounds; i++ {
		buf = strconv.AppendFloat(buf[:0], math.Float64frombits(rng.Uint64()), 'g', -1, 64)
		check(string(buf))

		digits := 1 + rng.Intn(19)
		buf = buf[:0]
		if rng.Intn(2) == 0 {
			buf = append(buf, '-')
		}
		for d := 0; d < digits; d++ {
			buf = append(buf, byte('0'+rng.Intn(10)))
		}
		buf = append(buf, 'e')
		buf = strconv.AppendInt(buf, int64(rng.Intn(700)-350), 10)
		check(string(buf))

		v := rng.Float64() * math.Pow(10, float64(rng.Intn(17)-8))
		buf = strconv.AppendFloat(buf[:0], v, 'f', rng.Intn(18), 64)
		check(string(buf))
	}
}

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// BenchmarkParseFloat parses SS-DB-like readings in shortest 'g' form
// through the kernel and through strconv.
func BenchmarkParseFloat(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	in := make([][]byte, 1024)
	for i := range in {
		in[i] = strconv.AppendFloat(nil, rng.Float64()*4096, 'g', -1, 64)
	}
	b.Run("kernel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := parseFloat(in[i%len(in)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("strconv", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := strconv.ParseFloat(string(in[i%len(in)]), 64); err != nil {
				b.Fatal(err)
			}
		}
	})
}
