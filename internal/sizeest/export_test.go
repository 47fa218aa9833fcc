package sizeest

import "reflect"

// OfZero is the reflective estimate of t's zero value, the reference the
// layout table (layout_test.go) checks layout.Layout.Deep against.
func OfZero(t reflect.Type) int64 { return of(reflect.Zero(t), map[uintptr]struct{}{}) }
