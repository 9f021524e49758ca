package relation

import (
	"testing"
)

// BenchmarkValueBoxing is the value-representation ablation: the engine's
// tagged-struct Value versus the interface{} boxing a naive
// implementation would use. The boxed variant allocates on creation
// and pays dynamic dispatch on every comparison — on a 100k-row scan
// that difference dominates.

type boxedValue interface{ kind() Kind }

type boxedInt int64
type boxedText string

func (boxedInt) kind() Kind  { return KindInt }
func (boxedText) kind() Kind { return KindText }

func boxedEqual(a, b boxedValue) bool {
	switch x := a.(type) {
	case boxedInt:
		y, ok := b.(boxedInt)
		return ok && x == y
	case boxedText:
		y, ok := b.(boxedText)
		return ok && x == y
	default:
		return false
	}
}

const scanRows = 100_000

// The benchmark covers the full row lifecycle a query executes:
// materialize a column of fresh values (INSERT / projection output),
// then probe it. Boxing pays a heap allocation per constructed value;
// the tagged struct stores inline. (On pure comparison dispatch alone
// the boxed type-switch can win — construction is where the design
// choice earns its keep, which is why both phases are timed.)
func BenchmarkValueBoxing(b *testing.B) {
	b.Run("tagged-struct", func(b *testing.B) {
		b.ReportAllocs()
		probe := Int(scanRows / 2)
		for n := 0; n < b.N; n++ {
			rows := make([]Value, scanRows)
			for i := range rows {
				if i%2 == 0 {
					rows[i] = Int(int64(i))
				} else {
					rows[i] = Text("abcdefg")
				}
			}
			hits := 0
			for i := range rows {
				if Equal(rows[i], probe) {
					hits++
				}
			}
			if hits != 1 {
				b.Fatal(hits)
			}
		}
	})
	b.Run("interface-boxed", func(b *testing.B) {
		b.ReportAllocs()
		probe := boxedValue(boxedInt(scanRows / 2))
		for n := 0; n < b.N; n++ {
			rows := make([]boxedValue, scanRows)
			for i := range rows {
				if i%2 == 0 {
					rows[i] = boxedInt(int64(i))
				} else {
					rows[i] = boxedText("abcdefg")
				}
			}
			hits := 0
			for i := range rows {
				if boxedEqual(rows[i], probe) {
					hits++
				}
			}
			if hits != 1 {
				b.Fatal(hits)
			}
		}
	})
}

func BenchmarkAppendKey(b *testing.B) {
	vals := []Value{Int(42), Text("Albany"), Float(2.5), Null()}
	var buf []byte
	b.ReportAllocs()
	for n := 0; n < b.N; n++ {
		buf = buf[:0]
		for _, v := range vals {
			buf = AppendKey(buf, v)
		}
	}
}
