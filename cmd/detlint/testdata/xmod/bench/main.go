// Command bench is a nested module's main, as the real bench/ is: what it
// reaches is reached.
package main

import "xmod/internal/vnet"

func main() {
	_ = vnet.New().Listening()
}
