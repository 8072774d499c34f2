//go:build !linux

package main

func yieldCPU() {}

func splitCPUs() (serverCPU int, restore func()) { return -1, func() {} }

func cpuTicks(int) (busy, total float64) { return 0, 0 }
