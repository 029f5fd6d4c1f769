package main

// Example runs the example and pins all it prints: go test fails when any
// line a user is shown changes.
func Example() {
	main()
	// Output:
	// training...
	//   epoch  1/10  loss 2.7728  val-top1 0.135  lr 0.0020
	//   epoch  2/10  loss 1.9074  val-top1 0.188  lr 0.0020
	//   epoch  3/10  loss 1.6922  val-top1 0.281  lr 0.0020
	//   epoch  4/10  loss 1.5075  val-top1 0.385  lr 0.0020
	//   epoch  5/10  loss 1.2785  val-top1 0.646  lr 0.0020
	//   epoch  6/10  loss 1.0320  val-top1 0.688  lr 0.0020
	//   epoch  7/10  loss 0.8147  val-top1 0.750  lr 0.0010
	//   epoch  8/10  loss 0.7052  val-top1 0.812  lr 0.0010
	//   epoch  9/10  loss 0.6132  val-top1 0.854  lr 0.0010
	//   epoch 10/10  loss 0.5095  val-top1 0.885  lr 0.0010
	// trained: test top-1 0.844 on 96 images (12 per class), 4108 parameters
	//
	// personalizing for classes [1 6] (usage 85%-15%):
	//   CAP'NN-B  size  88.1%  units pruned   7/ 60  top-1 1.000 (unpruned 1.000) on 24 images
	//   CAP'NN-W  size  44.3%  units pruned  22/ 60  top-1 0.833 (unpruned 1.000) on 24 images
	//   CAP'NN-M  size  41.1%  units pruned  28/ 60  top-1 0.917 (unpruned 1.000) on 24 images
	//
	// deployable model: 1687 parameters (41.1% of original)
}
