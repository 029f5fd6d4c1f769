package main

// Example runs the example and pins all it prints: go test fails when any
// line a user is shown changes.
func Example() {
	main()
	// Output:
	// device         model                  MACs   DRAM words  energy (µJ)     cycles
	// edge-default   original              44576         6320          4.6       1590
	// edge-default   personalized          29825         3912          2.9        987
	// tiny-buffers   original              44576        10208          7.1       2562
	// tiny-buffers   personalized          29825         4776          3.4       1203
	// big-buffers    original              44576         6320          4.6       1590
	// big-buffers    personalized          29825         3912          2.9        987
	//
	// Note how small weight buffers amplify DRAM traffic — and how the
	// personalized model shrinks exactly that dominant term (640 pJ/word).
	//
	// Per-layer energy breakdown of the personalized model (default device):
	//   conv0      compute    14515 pJ   SRAM   109440 pJ   DRAM    880640 pJ   (34.9%)
	//   relu1      compute     1037 pJ   SRAM    11520 pJ   DRAM         0 pJ   ( 0.4%)
	//   pool2      compute      346 pJ   SRAM     7200 pJ   DRAM         0 pJ   ( 0.3%)
	//   conv3      compute    25402 pJ   SRAM   182700 pJ   DRAM    672640 pJ   (30.6%)
	//   relu4      compute      227 pJ   SRAM     2520 pJ   DRAM         0 pJ   ( 0.1%)
	//   pool5      compute       76 pJ   SRAM     1575 pJ   DRAM         0 pJ   ( 0.1%)
	//   fc7        compute     1323 pJ   SRAM     9525 pJ   DRAM    664320 pJ   (23.5%)
	//   relu8      compute       14 pJ   SRAM      150 pJ   DRAM         0 pJ   ( 0.0%)
	//   fc9        compute      336 pJ   SRAM     2480 pJ   DRAM    183680 pJ   ( 6.5%)
	//   relu10     compute       14 pJ   SRAM      160 pJ   DRAM         0 pJ   ( 0.0%)
	//   fc11       compute      179 pJ   SRAM     1320 pJ   DRAM    102400 pJ   ( 3.6%)
	//   total 2.9 µJ
}
