package apps

import "strconv"

// call renders a task label, name(a,b,...) — byte for byte what
// fmt.Sprintf("%s(%d,%d,...)", name, a, b, ...) produces, at one
// allocation and without fmt's reflection. Building paper-scale graphs
// labels tens of thousands of tasks.
func call(name string, args ...int) string {
	var buf [48]byte
	b := append(buf[:0], name...)
	for i, a := range args {
		if i == 0 {
			b = append(b, '(')
		} else {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(a), 10)
	}
	return string(append(b, ')'))
}

// index renders a region name, name[a][b]... — byte for byte what
// fmt.Sprintf("%s[%d][%d]...", name, a, b, ...) produces.
func index(name string, idx ...int) string {
	var buf [48]byte
	b := append(buf[:0], name...)
	for _, i := range idx {
		b = append(b, '[')
		b = strconv.AppendInt(b, int64(i), 10)
		b = append(b, ']')
	}
	return string(b)
}
