package main

import "os"

// Example pins the quickstart end to end: the stream, the sample and
// every estimator are seeded, so the estimates, their errors and the
// space each estimator used are verbatim output.
func Example() {
	run(os.Stdout)
	// Output:
	// original stream: n=500000, distinct=8159 — monitor saw only 50043 items (10.0%)
	//
	// F2       estimate       8.73e+09   exact       8.72e+09   error  +0.12%
	// F0       estimate      1.572e+04   exact           8159   error +92.64%
	// entropy  estimate          8.092   exact          8.224   error  -1.61%
	//
	// space used: F2=952640B  F0=24592B  entropy=147456B  (stream was 500000 items)
}
