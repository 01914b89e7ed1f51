//go:build race

package transport

// raceEnabled: under the race detector sync.Pool drops items at
// random, so allocation counts mean nothing.
const raceEnabled = true
