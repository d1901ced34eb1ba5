//go:build !linux

package main

import "errors"

func pinToOneCPU() (int, error) {
	return 0, errors.New("CPU pinning needs Linux")
}
