//go:build race

package collector

const raceEnabled = true
