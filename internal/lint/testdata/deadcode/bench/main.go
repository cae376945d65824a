// Command bench is a second module that reaches the fixture through a
// replace directive, the shape of the repository's benchmark module.
package main

import "deadfix/internal/a"

func main() { a.UsedBySecondModule() }
