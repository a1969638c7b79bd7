package insitu

import (
	"encoding/binary"
	"math"
	"math/big"
	"math/bits"
	"strconv"
	"sync"
)

func floatBits(f float64) uint64 { return math.Float64bits(f) }

func floatFromBits(b uint64) float64 { return math.Float64frombits(b) }

// parseFloat parses a CSV float field with the result and the failure of
// strconv.ParseFloat(string(b), 64), bit for bit. The common decimal form —
// an optional sign, at most 19 significant digits with an optional '.', an
// optional exponent, a decimal exponent in [minPow10, maxPow10] — goes
// through the Eisel–Lemire kernel with no allocation; every other input
// (more digits, hex, inf/nan, underscores, an ambiguous halfway product,
// overflow, underflow, a syntax error) goes to strconv.
func parseFloat(b []byte) (float64, error) {
	if f, n := prefixFloat(b); n > 0 && n == len(b) {
		return f, nil
	}
	return strconv.ParseFloat(string(b), 64)
}

// prefixFloat parses the decimal number at the start of b through the
// kernel and returns it with the bytes it took; n is 0 when b does not
// start with the kernel's grammar or the kernel cannot decide the value.
// The line parser takes the number where it stands when b[n] ends the
// field; parseFloat takes it when n ends b.
func prefixFloat(b []byte) (f float64, n int) {
	man, exp10, neg, n := scanDecimal(b)
	if n == 0 {
		return 0, 0
	}
	f, ok := eiselLemire(man, exp10, neg)
	if !ok {
		return 0, 0
	}
	return f, n
}

// scanDecimal splits the number at the start of b into a decimal mantissa
// and exponent, b[:n] = ±man × 10^exp10, and returns where it stopped. n is
// 0 when b does not start with the kernel's grammar, has more than 19
// significant digits (leading zeros do not count), so that man always fits
// in a uint64, or has an 'e' with no exponent digits, or its exponent
// falls outside [minPow10, maxPow10].
func scanDecimal(b []byte) (man uint64, exp10 int, neg bool, n int) {
	i := 0
	if len(b) > 0 && (b[0] == '+' || b[0] == '-') {
		neg = b[0] == '-'
		i++
	}
	start := i
	for i < len(b) && b[i] == '0' {
		i++
	}
	// man wraps past 19 digits; sig rejects it below.
	from := i
	for i < len(b) && b[i]-'0' <= 9 {
		man = man*10 + uint64(b[i]-'0')
		i++
	}
	sig := i - from
	digits := i > start
	if i < len(b) && b[i] == '.' {
		i++
		frac := i
		if sig == 0 {
			for i < len(b) && b[i] == '0' {
				i++
			}
		}
		from = i
		for i < len(b) && b[i]-'0' <= 9 {
			man = man*10 + uint64(b[i]-'0')
			i++
		}
		sig += i - from
		exp10 = frac - i
		digits = digits || i > frac
	}
	if !digits || sig > 19 {
		return 0, 0, false, 0
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		eneg := false
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			eneg = b[i] == '-'
			i++
		}
		e, edigits := 0, false
		for ; i < len(b) && b[i]-'0' <= 9; i++ {
			if e < 10000 {
				e = e*10 + int(b[i]-'0')
			}
			edigits = true
		}
		if !edigits {
			return 0, 0, false, 0
		}
		if eneg {
			e = -e
		}
		exp10 += e
	}
	if exp10 < minPow10 || exp10 > maxPow10 {
		return 0, 0, false, 0
	}
	return man, exp10, neg, i
}

// The powers of ten the kernel can scale by. Past them a nonzero mantissa
// of at most 19 digits only underflows to zero or overflows.
const (
	minPow10 = -348
	maxPow10 = 347
)

// pow10 holds, for each q in [minPow10, maxPow10], the first 128 bits of
// 10^q's binary expansion rounded down, as {low, high} words with the top
// bit of high set. buildPow10 fills it once, on the first parse, from exact
// big-integer arithmetic.
var (
	pow10Once sync.Once
	pow10     *[maxPow10 - minPow10 + 1][2]uint64
)

func buildPow10() {
	t := new([maxPow10 - minPow10 + 1][2]uint64)
	var w [16]byte
	for q := minPow10; q <= maxPow10; q++ {
		e := big.NewInt(int64(q))
		p := new(big.Int).Exp(big.NewInt(10), e.Abs(e), nil)
		if q < 0 {
			// floor(2^k / 10^-q) with k large enough for 129+ bits.
			k := uint(p.BitLen() + 128)
			p.Quo(new(big.Int).Lsh(big.NewInt(1), k), p)
		}
		if n := p.BitLen(); n > 128 {
			p.Rsh(p, uint(n-128))
		} else {
			p.Lsh(p, uint(128-n))
		}
		p.FillBytes(w[:])
		t[q-minPow10] = [2]uint64{binary.BigEndian.Uint64(w[8:]), binary.BigEndian.Uint64(w[:8])}
	}
	pow10 = t
}

// eiselLemire returns the float64 nearest to ±man × 10^exp10, rounding
// half to even, or ok false when the 128-bit truncated product cannot
// decide the rounding or the result is subnormal, zero by underflow, or
// out of range (Lemire, "Number Parsing at a Gigabyte per Second", 2021).
// exp10 must lie in [minPow10, maxPow10].
func eiselLemire(man uint64, exp10 int, neg bool) (float64, bool) {
	if man == 0 {
		if neg {
			return math.Copysign(0, -1), true
		}
		return 0, true
	}
	pow10Once.Do(buildPow10)
	pow := &pow10[exp10-minPow10]
	// Normalize man to a set top bit; 217706/2^16 ≈ log2(10) gives the
	// binary exponent of 10^exp10.
	lz := bits.LeadingZeros64(man)
	man <<= uint(lz)
	exp2 := uint64(217706*exp10>>16+64+1023) - uint64(lz)

	hi, lo := bits.Mul64(man, pow[1])
	// The nine bits below the 54 kept are all ones and the low word could
	// carry: add the second table word's contribution.
	if hi&0x1FF == 0x1FF && lo+man < man {
		hi2, lo2 := bits.Mul64(man, pow[0])
		mhi, mlo := hi, lo+hi2
		if mlo < lo {
			mhi++
		}
		if mhi&0x1FF == 0x1FF && mlo+1 == 0 && lo2+man < man {
			return 0, false
		}
		hi, lo = mhi, mlo
	}

	// Keep 54 bits: the 53 of the result and one to round with.
	top := hi >> 63
	m := hi >> (top + 9)
	exp2 -= 1 ^ top
	// Exactly halfway on the truncated product: the true value may lie on
	// either side.
	if lo == 0 && hi&0x1FF == 0 && m&3 == 1 {
		return 0, false
	}
	m += m & 1
	m >>= 1
	if m>>53 > 0 {
		m >>= 1
		exp2++
	}
	// exp2 of 0 (or wrapped below it) is subnormal; 0x7FF and up is ±Inf.
	if exp2-1 >= 0x7FF-1 {
		return 0, false
	}
	b := exp2<<52 | m&(1<<52-1)
	if neg {
		b |= 1 << 63
	}
	return math.Float64frombits(b), true
}
