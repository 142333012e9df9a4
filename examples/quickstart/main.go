// Quickstart: a tour of the public API on a 4-node simulated machine —
// creation with location transparency, asynchronous sends, call/return
// with join continuations, and group broadcast.
package main

import (
	"fmt"
	"log"

	"hal"
)

// Selectors of our little protocol.
const (
	selGreet hal.Selector = iota + 1
	selWave
)

// greeter answers greetings with its node id.
type greeter struct{ name string }

func (g *greeter) Receive(ctx *hal.Context, msg *hal.Message) {
	switch msg.Sel {
	case selGreet:
		ctx.Reply(msg, fmt.Sprintf("%s greets %v from node %d", g.name, msg.Arg(0), ctx.Node()))
	case selWave:
		ctx.Printf("  %s (member %d) waves from node %d\n", g.name, msg.Int(0), ctx.Node())
	}
}

func main() {
	m, err := hal.NewMachine(hal.DefaultConfig(4))
	if err != nil {
		log.Fatal(err)
	}

	// Register behavior types up front: the analog of loading the
	// program's executable on every node.
	greeterType := m.RegisterType("greeter", func(args []any) hal.Behavior {
		return &greeter{name: args[0].(string)}
	})
	memberType := m.RegisterType("member", func(args []any) hal.Behavior {
		return &greeter{name: fmt.Sprintf("member-%d", args[0].(int))}
	})

	result, err := m.Run(func(ctx *hal.Context) {
		// Remote creation returns immediately with an alias; the actor
		// is usable before it exists (latency hiding).
		alice := ctx.NewOn(2, greeterType, "alice")
		bob := ctx.NewOn(3, greeterType, "bob")

		// Call/return: one join continuation gathers both replies.
		j := ctx.NewJoin(2, func(ctx *hal.Context, slots []any) {
			ctx.Printf("%s\n%s\n", slots[0], slots[1])

			// grpnew + broadcast: create a group spread over the
			// machine and wave at every member along the spanning tree.
			g := ctx.NewGroup(memberType, 6, 0)
			ctx.Broadcast(g, selWave, 7)
			ctx.Exit("done")
		})
		ctx.Request(alice, selGreet, j, 0, "the world")
		ctx.Request(bob, selGreet, j, 1, "the world")
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("run result:", result)
	fmt.Println("virtual makespan:", m.VirtualTime())
}
