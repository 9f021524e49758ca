// Package relation provides the relational substrate shared by every
// layer of the eCFD system: typed values, schemas, tuples and in-memory
// relations with CSV import/export.
//
// Values are represented as a small tagged struct rather than an
// interface so that scans over hundreds of thousands of rows do not box
// every field (BenchmarkValueBoxing measures the difference).
package relation

import (
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind enumerates the runtime types a Value can hold.
type Kind uint8

// The value kinds supported by the engine. Null sorts before every
// other value; Bool sorts false < true.
const (
	KindNull Kind = iota
	KindBool
	KindInt
	KindFloat
	KindText
)

func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindBool:
		return "BOOLEAN"
	case KindInt:
		return "INTEGER"
	case KindFloat:
		return "REAL"
	case KindText:
		return "TEXT"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Value is a single field of a tuple: a tagged union over the engine's
// scalar types. The zero Value is NULL.
type Value struct {
	K Kind
	I int64   // KindInt and KindBool (0/1)
	F float64 // KindFloat
	S string  // KindText
}

// Null returns the SQL NULL value.
func Null() Value { return Value{} }

// Int returns an INTEGER value.
func Int(i int64) Value { return Value{K: KindInt, I: i} }

// Float returns a REAL value.
func Float(f float64) Value { return Value{K: KindFloat, F: f} }

// Text returns a TEXT value.
func Text(s string) Value { return Value{K: KindText, S: s} }

// Bool returns a BOOLEAN value.
func Bool(b bool) Value {
	if b {
		return Value{K: KindBool, I: 1}
	}
	return Value{K: KindBool}
}

// IsNull reports whether v is NULL.
func (v Value) IsNull() bool { return v.K == KindNull }

// Truth reports whether v is a true boolean. NULL and false are both
// not true (SQL three-valued logic collapses to this at filter level).
func (v Value) Truth() bool { return v.K == KindBool && v.I != 0 }

// AsFloat widens numeric values to float64; text and null yield 0.
func (v Value) AsFloat() float64 {
	switch v.K {
	case KindInt, KindBool:
		return float64(v.I)
	case KindFloat:
		return v.F
	default:
		return 0
	}
}

// String renders the value the way the REPL and tests print it.
func (v Value) String() string {
	switch v.K {
	case KindNull:
		return "NULL"
	case KindBool:
		if v.I != 0 {
			return "TRUE"
		}
		return "FALSE"
	case KindInt:
		return strconv.FormatInt(v.I, 10)
	case KindFloat:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case KindText:
		return v.S
	default:
		return fmt.Sprintf("Value(kind=%d)", uint8(v.K))
	}
}

// SQL renders the value as a SQL literal.
func (v Value) SQL() string {
	if v.K == KindText {
		return "'" + strings.ReplaceAll(v.S, "'", "''") + "'"
	}
	return v.String()
}

// numeric reports whether the value participates in arithmetic.
func (v Value) numeric() bool {
	return v.K == KindInt || v.K == KindFloat || v.K == KindBool
}

// cmpIntFloat compares an int64 with a float64 exactly: -1, 0 or +1
// as i is below, equal to or above f. Widening the int to float64
// would merge values beyond 2^53 and make mixed-kind comparison
// intransitive, which neither the total order (index sorting, binary
// searches) nor the hash keys can tolerate. NaN sorts above every
// number, matching Compare's rule.
func cmpIntFloat(i int64, f float64) int {
	if f != f {
		return -1 // i < NaN
	}
	if f >= 9223372036854775808.0 { // 2^63: f exceeds every int64
		return -1
	}
	if f < -9223372036854775808.0 { // below -2^63: f is under every int64
		return 1
	}
	t := math.Trunc(f)
	ti := int64(t) // exact: t is integral and within int64 range
	switch {
	case i < ti:
		return -1
	case i > ti:
		return 1
	case f > t: // equal integer parts, f has a positive fraction
		return -1
	case f < t: // negative fraction
		return 1
	}
	return 0
}

// Equal reports value equality with numeric comparison across kinds:
// 1 = 1.0, exactly — mixed int/float pairs compare via cmpIntFloat,
// never by float widening, so Equal is a true equivalence relation
// and agrees with Key()'s canonicalization and Compare's total order
// at every magnitude. Comparisons involving NULL are never equal
// (callers wanting SQL semantics should special-case NULL before
// calling), and NaN equals nothing.
func Equal(a, b Value) bool {
	if a.K == KindNull || b.K == KindNull {
		return false
	}
	if a.numeric() && b.numeric() {
		switch {
		case a.K == KindFloat && b.K == KindFloat:
			return a.F == b.F
		case a.K == KindFloat:
			return cmpIntFloat(b.I, a.F) == 0
		case b.K == KindFloat:
			return cmpIntFloat(a.I, b.F) == 0
		}
		return a.I == b.I
	}
	if a.K != b.K {
		return false
	}
	if a.K == KindText {
		return a.S == b.S
	}
	return a.I == b.I
}

// Identical reports value *identity*: like Equal, but NULL is
// identical to NULL and NaN to NaN (any NaN payload), mirroring
// Compare's total order exactly — Identical(a, b) ⇔ Compare(a, b) == 0.
// Identity contexts (tuple dedup, index-maintenance cross-checks)
// use this so they can never disagree with index order; SQL
// expression equality stays on Equal.
func Identical(a, b Value) bool {
	if a.K == KindText && b.K == KindText {
		return a.S == b.S // the common pair, ahead of the NULL / NaN ladder
	}
	if a.K == KindNull || b.K == KindNull {
		return a.K == b.K
	}
	if a.numeric() && b.numeric() {
		af, bf := a.AsFloat(), b.AsFloat()
		if af != af || bf != bf { // NaN on either side
			return af != af && bf != bf
		}
	}
	return Equal(a, b)
}

// Compare orders two values: -1, 0 or +1. NULL sorts first, then
// numbers (booleans included), then text. Numeric comparison is
// *exact* in every kind combination — int64 pairs on int64, mixed
// int/float pairs via cmpIntFloat, never by widening the int to
// float64 (which merges values beyond 2^53 and is intransitive) —
// and NaN sorts after every other number, equal only to itself. So
// Compare is a transitive total order with Compare(a, b) == 0 ⇔
// Identical(a, b) — the ordered indexes, their binary-searched range
// scans and the equality-by-search prefix probes depend on both.
// Used by ORDER BY, GROUP BY key sorting, index order and index
// probes.
func Compare(a, b Value) int {
	ra, rb := rank(a), rank(b)
	if ra != rb {
		return sign(ra - rb)
	}
	switch {
	case a.K == KindNull:
		return 0
	case a.numeric() && b.numeric():
		// Numeric comparison is exact in every combination — integer
		// pairs on int64, mixed pairs via cmpIntFloat — so the order is
		// the mathematical order (transitive, total) and Compare == 0
		// coincides with Equal wherever NaN is not involved. The probes
		// that answer equality through Compare == 0 (eqPrefixRange) and
		// the index binary searches depend on both properties.
		switch {
		case a.K != KindFloat && b.K != KindFloat:
			switch {
			case a.I < b.I:
				return -1
			case a.I > b.I:
				return 1
			}
			return 0
		case a.K != KindFloat:
			return cmpIntFloat(a.I, b.F)
		case b.K != KindFloat:
			return -cmpIntFloat(b.I, a.F)
		}
		af, bf := a.F, b.F
		aNaN, bNaN := af != af, bf != bf
		switch {
		case aNaN && bNaN:
			return 0
		case aNaN:
			return 1
		case bNaN:
			return -1
		case af < bf:
			return -1
		case af > bf:
			return 1
		}
		return 0
	default: // text
		return strings.Compare(a.S, b.S)
	}
}

// rank groups kinds into comparison classes: NULL < numeric < text.
func rank(v Value) int {
	switch v.K {
	case KindNull:
		return 0
	case KindBool, KindInt, KindFloat:
		return 1
	default:
		return 2
	}
}

func sign(i int) int {
	switch {
	case i < 0:
		return -1
	case i > 0:
		return 1
	}
	return 0
}

// Key returns a map-key representation of v so tuples of values can be
// grouped and hashed: AppendKey's encoding, as a string.
func (v Value) Key() string {
	var buf [32]byte
	return string(AppendKey(buf[:0], v))
}

// AppendKey appends v's key encoding to dst without allocating a
// string; hot paths (hash-probe joins, grouping) use it with a reused
// buffer and look maps up via string(dst), which Go compiles without a
// copy. The encoding is injective across kinds — integral floats encode
// like ints, so 1 and 1.0 group together, matching Equal's numeric
// widening — and prefix-free: every encoding starts with 0x00, which no
// number's rendering holds, and text carries its length, so no cell's bytes
// can end one key and begin the next. A concatenation of keys is
// therefore the key of the sequence, with no separator (AppendKeyOf).
func AppendKey(dst []byte, v Value) []byte {
	switch v.K {
	case KindNull:
		return append(dst, 0x00, 'n')
	case KindBool, KindInt:
		dst = append(dst, 0x00, 'i')
		return strconv.AppendInt(dst, v.I, 10)
	case KindFloat:
		// The range test first: converting a float outside int64's range
		// is implementation-defined, and may land back on f.
		if f := v.F; f >= -1<<63 && f < 1<<63 && f == float64(int64(f)) {
			dst = append(dst, 0x00, 'i')
			return strconv.AppendInt(dst, int64(f), 10)
		}
		dst = append(dst, 0x00, 'f')
		return strconv.AppendFloat(dst, v.F, 'b', -1, 64)
	default:
		dst = append(dst, 0x00, 't')
		dst = binary.AppendUvarint(dst, uint64(len(v.S)))
		return append(dst, v.S...)
	}
}

// AppendKeyOf appends the joint key of vs to dst: their keys, in order.
func AppendKeyOf(dst []byte, vs []Value) []byte {
	for i := range vs {
		dst = AppendKey(dst, vs[i])
	}
	return dst
}

// KeyOf concatenates the Key encodings of vs into one grouping key.
func KeyOf(vs []Value) string {
	return string(AppendKeyOf(nil, vs))
}

// ParseLiteral converts raw text (for example from CSV) to a Value of
// the given kind. Empty text becomes NULL for non-text kinds.
func ParseLiteral(s string, k Kind) (Value, error) {
	switch k {
	case KindText:
		return Text(s), nil
	case KindInt:
		if s == "" {
			return Null(), nil
		}
		i, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return Null(), fmt.Errorf("relation: parse %q as INTEGER: %w", s, err)
		}
		return Int(i), nil
	case KindFloat:
		if s == "" {
			return Null(), nil
		}
		f, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return Null(), fmt.Errorf("relation: parse %q as REAL: %w", s, err)
		}
		return Float(f), nil
	case KindBool:
		switch strings.ToLower(s) {
		case "true", "t", "1":
			return Bool(true), nil
		case "false", "f", "0":
			return Bool(false), nil
		case "":
			return Null(), nil
		}
		return Null(), fmt.Errorf("relation: parse %q as BOOLEAN", s)
	case KindNull:
		return Null(), nil
	default:
		return Null(), fmt.Errorf("relation: unknown kind %v", k)
	}
}
