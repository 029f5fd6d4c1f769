package main

// Example runs the example and pins all it prints: go test fails when any
// line a user is shown changes.
func Example() {
	main()
	// Output:
	// original model: 4108 parameters
	// after class-unaware pruning: 3059 parameters (74.5%)
	// after stacking CAP'NN-M (classes [2 6]): 1720 parameters (41.9% of original)
	// user-classes top-1 on 24 test images (12 per class): 0.833 → 0.750   top-5: 1.000 → 1.000
}
