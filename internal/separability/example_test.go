package separability_test

import (
	"fmt"

	"repro/internal/separability"
)

// Exhaustive checking of a small system is a proof: every state and input
// is visited and all six conditions verified universally.
func ExampleCheckExhaustiveOpt() {
	secure := separability.NewToySystem(separability.ToySecure)
	fmt.Println(separability.CheckExhaustiveOpt(secure, separability.ExhaustiveOptions{}).Passed())

	leaky := separability.NewToySystem(separability.ToyDirectWrite)
	res := separability.CheckExhaustiveOpt(leaky, separability.ExhaustiveOptions{})
	fmt.Println(res.Passed())
	fmt.Println(res.ViolatedConditions())
	// Output:
	// true
	// false
	// [condition 2]
}

// Randomized checking scales to systems too large to enumerate; every
// violation it reports is a genuine counterexample.
func ExampleCheckRandomized() {
	sys := separability.NewToySystem(separability.ToyCovertStore)
	res := separability.CheckRandomized(sys, separability.Options{
		Trials: 20, StepsPerTrial: 40, Seed: 7,
	})
	fmt.Println(res.Passed())
	fmt.Println(res.ViolatedConditions())
	// Output:
	// false
	// [condition 1]
}
