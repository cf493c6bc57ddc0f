//go:build !linux

package main

import "time"

func fineTimerSlack() {}

func sleepUntil(t time.Time) { time.Sleep(time.Until(t)) }

func cpuTicks() (steal, total uint64, ok bool) { return 0, 0, false }
