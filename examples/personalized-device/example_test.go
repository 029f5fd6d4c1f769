package main

// Example runs the example and pins all it prints: go test fails when any
// line a user is shown changes.
func Example() {
	main()
	// Output:
	// cloud: model served on a loopback TCP port (chaos: 25% corrupt, 25% cut connections)
	// device: monitoring 60 predictions...
	// device: fetch attempt 1 failed (serve: [internal] receive: frame checksum mismatch) — backing off and retrying
	// device: monitoring found classes [2 5] with usage [0.59 0.41]
	// cloud → device: personalized model, 60.4% of original size (13/60 units pruned)
	// user-classes top-1 on 24 test images (12 per class): 0.625 → 0.667   top-5: 1.000 → 1.000
	// per-inference energy: 4.6 µJ → 3.5 µJ (23% saved)
}
