//go:build race

package main

// smokeSeconds is the smoke run's window. The race detector slows the
// daemon several-fold, and a window must still hold a few whole
// 65536-item requests for every metric to have a sample.
const smokeSeconds = "3"
