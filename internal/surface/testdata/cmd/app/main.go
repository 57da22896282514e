// Command app is the fixture's production caller.
package main

import (
	"fmt"
	"io"

	"fixture/internal/fx"
)

var _ fx.Shape = fx.Square{}

func main() {
	fx.Used()
	b, _ := io.ReadAll(fx.Src{})
	fmt.Println(fx.NewBox(1).Get(), fx.Name("n"), b)
}
