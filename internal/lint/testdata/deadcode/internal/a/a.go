// Package a holds one positive and one negative case per dead-code
// rule. Lines the guard must flag carry want comments; every other
// declaration must stay silent.
package a

// Uses: a binary's use keeps a declaration alive; no use flags it.

const UsedConst = 3

const UnusedConst = 1 // want "const a.UnusedConst has no non-test use"

var UnusedVar = 2 // want "var a.UnusedVar has no non-test use"

type UnusedType struct{} // want "type a.UnusedType has no non-test use"

// OnlyTests is called from a_test.go alone: tests are not users.
func OnlyTests() {} // want "func a.OnlyTests has no non-test use"

// Recursive calls only itself: a declaration does not keep itself
// alive.
func Recursive(n int) int { // want "func a.Recursive has no non-test use"
	if n == 0 {
		return 0
	}
	return Recursive(n - 1)
}

// UsedBySecondModule has its one caller in the bench module.
func UsedBySecondModule() {}

// Box is generic; the binary uses an instance of its method.
type Box[T any] struct{ V T }

func (b Box[T]) Get() T { return b.V }

// Interfaces: a method that satisfies an interface in the program is
// used through it.

type Shape interface{ Area() int }

type Square struct{ N int }

func (s Square) Area() int { return s.N * s.N }

func (s Square) Perimeter() int { return 4 * s.N } // want "method a.Square.Perimeter has no non-test use"

// Dynamic assertions: the standard library finds Unwrap methods
// through anonymous interfaces (errors.Unwrap here).

type wrapErr struct{ err error }

func (e *wrapErr) Error() string { return "wrap: " + e.err.Error() }

func (e *wrapErr) Unwrap() error { return e.err }

// Wrap is what the binary calls.
func Wrap(err error) error { return &wrapErr{err} }

// Unwrap is a function, not a method: nothing finds it dynamically.
func Unwrap(err error) error { return err } // want "func a.Unwrap has no non-test use"

// Oracles: the tag exempts a declaration only with a reason, and only
// while nothing but tests uses it.

// Reference is what the tests compare the fast path against.
//
//simd:oracle reference model the tests pin the fast path against
func Reference() int { return 1 }

// Limits are bounds the tests share; the group's doc covers both.
//
//simd:oracle bounds the tests share
const (
	Lo = 0
	Hi = 9
)

// Bare carries the tag without a reason.
//
//simd:oracle
func Bare() {} // want "func a.Bare: //simd:oracle needs a reason"

// Stale carries the tag, but the binary calls it.
//
//simd:oracle kept for tests
func Stale() int { return 2 } // want "func a.Stale carries //simd:oracle but non-test code uses it"
