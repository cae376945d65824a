// Command tool is the fixture module's only binary: everything it
// reaches counts as used.
package main

import (
	"errors"
	"fmt"

	"deadfix/internal/a"
)

// helper is unused, but it is not under internal/, so the guard
// does not look at it.
func helper() {}

func main() {
	var sh a.Shape = a.Square{N: 2}
	fmt.Println(sh.Area(), a.UsedConst, a.Stale(), a.Box[int]{V: 1}.Get())
	fmt.Println(errors.Unwrap(a.Wrap(errors.New("x"))))
}
