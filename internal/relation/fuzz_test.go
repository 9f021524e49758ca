package relation

import (
	"encoding/binary"
	"math"
	"testing"
)

// fuzzTuples decodes two tuples of width values each from data: per value
// a kind byte, then for text a length byte and that many bytes, for an
// integer or a real eight bytes, for a boolean one. Data that runs out
// pads with NULLs.
func fuzzTuples(width uint8, data []byte) (a, b Tuple) {
	next := func(n int) []byte {
		if n > len(data) {
			n = len(data)
		}
		p := data[:n]
		data = data[n:]
		return p
	}
	word := func() uint64 {
		var w [8]byte
		copy(w[:], next(8))
		return binary.LittleEndian.Uint64(w[:])
	}
	value := func() Value {
		k := next(1)
		if len(k) == 0 {
			return Null()
		}
		switch k[0] % 5 {
		case 1:
			return Int(int64(word()))
		case 2:
			return Float(math.Float64frombits(word()))
		case 3:
			n := next(1)
			if len(n) == 0 {
				return Text("")
			}
			return Text(string(next(int(n[0]))))
		case 4:
			v := next(1)
			return Bool(len(v) > 0 && v[0]&1 == 1)
		}
		return Null()
	}
	w := int(width % 8)
	a, b = make(Tuple, w), make(Tuple, w)
	for i := range a {
		a[i] = value()
	}
	for i := range b {
		b[i] = value()
	}
	return a, b
}

// fuzzEncode is fuzzTuples' inverse, for seeds.
func fuzzEncode(vs ...Value) []byte {
	var out []byte
	for _, v := range vs {
		switch v.K {
		case KindNull:
			out = append(out, 0)
		case KindInt:
			out = binary.LittleEndian.AppendUint64(append(out, 1), uint64(v.I))
		case KindFloat:
			out = binary.LittleEndian.AppendUint64(append(out, 2), math.Float64bits(v.F))
		case KindText:
			out = append(append(out, 3, byte(len(v.S))), v.S...)
		case KindBool:
			out = append(out, 4, byte(v.I))
		}
	}
	return out
}

// FuzzKeyOf states what grouping, DISTINCT and the hash joins rely on:
// two tuples of one width get the same KeyOf exactly when every position
// is Identical — which folds Int, Float and Bool by numeric value, and
// takes NULL to NULL and NaN to NaN. Seeded with TEXT cells holding
// 0x1f, the separator keys were once joined with, and a kind tag: while
// text was not length-prefixed, two different pairs made one key.
func FuzzKeyOf(f *testing.F) {
	f.Add(uint8(2), fuzzEncode(Text("a\x1f\x00tb"), Text("c"), Text("a"), Text("b\x1f\x00tc")))
	f.Add(uint8(2), fuzzEncode(Text("a\x1f\x00i1"), Int(2), Text("a"), Text("\x00i1\x1f\x00i2")))
	f.Add(uint8(1), fuzzEncode(Int(3), Float(3)))
	f.Add(uint8(1), fuzzEncode(Bool(true), Int(1)))
	f.Add(uint8(1), fuzzEncode(Float(math.Copysign(0, -1)), Int(0)))
	f.Add(uint8(1), fuzzEncode(Float(math.NaN()), Float(math.Float64frombits(0x7ff8000000000001))))
	f.Add(uint8(1), fuzzEncode(Float(1<<63), Int(math.MaxInt64)))
	f.Add(uint8(1), fuzzEncode(Float(-1<<63), Int(math.MinInt64)))
	f.Add(uint8(2), fuzzEncode(Null(), Text(""), Text(""), Null()))
	f.Fuzz(func(t *testing.T, width uint8, data []byte) {
		a, b := fuzzTuples(width, data)
		same := true
		for i := range a {
			same = same && Identical(a[i], b[i])
		}
		if ka, kb := KeyOf(a), KeyOf(b); (ka == kb) != same {
			t.Fatalf("%#v and %#v: keys equal %v, every position Identical %v", a, b, ka == kb, same)
		}
		for i := range a {
			if a[i].Key() != string(AppendKey(nil, a[i])) {
				t.Fatalf("%#v: Key and AppendKey differ", a[i])
			}
		}
	})
}
