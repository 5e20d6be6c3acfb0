//go:build !race

package exec_test

const raceDetector = false
