//go:build !race

package main

// smokeSeconds is the smoke run's window: the -smoke default.
const smokeSeconds = "0.3"
