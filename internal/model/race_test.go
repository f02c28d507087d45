//go:build race

package model

func init() { raceEnabled = true }
