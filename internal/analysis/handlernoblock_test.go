package analysis

import "testing"

func TestHandlerNoBlockFixture(t *testing.T) {
	runFixture(t, HandlerNoBlock, "handlernoblock")
}
