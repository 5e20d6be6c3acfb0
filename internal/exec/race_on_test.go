//go:build race

package exec_test

// raceDetector: under it sync.Pool drops a quarter of what is put back, so a
// run that borrows many windows almost never finds them all pooled.
const raceDetector = true
