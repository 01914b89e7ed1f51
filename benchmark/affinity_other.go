//go:build !linux

package main

// pinToOneCPU is a no-op where sched_setaffinity does not exist.
func pinToOneCPU() {}
