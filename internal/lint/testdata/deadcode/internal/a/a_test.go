package a

import "testing"

func TestFixture(t *testing.T) {
	OnlyTests()
	_ = Recursive(3) + Reference() + Lo + Hi + UnusedConst + UnusedVar
	_ = UnusedType{}
	_ = Square{}.Perimeter()
	_ = Unwrap(nil)
	Bare()
}
