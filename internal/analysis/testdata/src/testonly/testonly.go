// Fixture for the testonly analyzer, checked as coreda/internal/testonly
// inside a two-package program: this package plus testonly_root, a
// root-package fixture (import path "coreda") that calls Run and aliases
// Widget. Non-test references count; those from testonly_test.go do not.
package testonly

import "fmt"

// Run is the production entry point: the root fixture calls it.
func Run() error {
	for _, s := range []Shape{Square{Side: Limit}} {
		fmt.Println(s)
	}
	return parseError{}
}

// OnlyTests is called from testonly_test.go and nowhere else.
func OnlyTests() int { return 1 } // want `OnlyTests has no non-test reference`

// dead is called by nothing at all.
func dead() {} // want `dead has no non-test reference`

// recursive only calls itself: a self-reference is not a use.
func recursive(n int) int { // want `recursive has no non-test reference`
	if n == 0 {
		return 0
	}
	return recursive(n - 1)
}

// parseError satisfies error: fmt and errors call Error and Unwrap
// through interfaces, never by name.
type parseError struct{}

func (parseError) Error() string { return "parse error" }

func (parseError) Unwrap() error { return nil }

// Shape is an in-module interface the program uses.
type Shape interface{ Area() int }

// Square implements Shape; Area is only ever called through Shape.
type Square struct{ Side int }

func (s Square) Area() int { return s.Side * s.Side }

// String satisfies fmt.Stringer, which fmt.Println calls.
func (s Square) String() string { return fmt.Sprint("square ", s.Side) }

// Perimeter satisfies no interface and nobody calls it.
func (s Square) Perimeter() int { return 4 * s.Side } // want `Perimeter has no non-test reference`

// Widget is aliased by the root fixture: its exported methods are public
// API, called from outside the module.
type Widget struct{}

// Spin is public API through the root package's alias.
func (Widget) Spin() {}

// wobble is unexported, so the alias does not make it public.
func (Widget) wobble() {} // want `wobble has no non-test reference`

// Reader has a production reason to stay with no caller in the module.
//
//coreda:vet-ignore testonly reads back what the public Writer writes
func Reader() {}

// Limit is referenced by Run, so its directive is stale.
//
//coreda:vet-ignore testonly excused a caller that has since landed want `stale ignore directive: "testonly" reports nothing here`
const Limit = 3
