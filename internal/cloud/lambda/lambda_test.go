package lambda

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"ampsinf/internal/cloud/billing"
	"ampsinf/internal/cloud/pricing"
	"ampsinf/internal/cloud/s3"
	"ampsinf/internal/perf"
)

func newPlatform() (*Platform, *billing.Meter) {
	m := &billing.Meter{}
	return New(m, perf.Default()), m
}

func echoHandler(ctx *Context, payload []byte) ([]byte, error) {
	ctx.advance("work", 200*time.Millisecond)
	return payload, nil
}

func TestValidMemory(t *testing.T) {
	pl, _ := newPlatform()
	create := func(m int) error {
		return pl.CreateFunction(FunctionConfig{Name: fmt.Sprint("f", m), MemoryMB: m, Handler: echoHandler})
	}
	for _, m := range []int{128, 192, 512, 1024, 3008} {
		if err := create(m); err != nil {
			t.Errorf("%d MB rejected: %v", m, err)
		}
	}
	for _, m := range []int{0, 64, 100, 130, 3072, 1025} {
		if create(m) == nil {
			t.Errorf("%d MB accepted", m)
		}
	}
}

func TestCreateFunctionValidation(t *testing.T) {
	pl, _ := newPlatform()
	base := FunctionConfig{Name: "f", MemoryMB: 512, Handler: echoHandler}

	if err := pl.CreateFunction(base); err != nil {
		t.Fatalf("valid function rejected: %v", err)
	}
	if err := pl.CreateFunction(base); err == nil {
		t.Fatal("duplicate function accepted")
	}

	bad := base
	bad.Name = "g"
	bad.MemoryMB = 100
	if err := pl.CreateFunction(bad); err == nil {
		t.Fatal("invalid memory accepted")
	}

	bad = base
	bad.Name = "h"
	bad.PackageBytes = 251 << 20
	if err := pl.CreateFunction(bad); err == nil {
		t.Fatal("oversized package accepted")
	}

	bad = base
	bad.Name = "i"
	bad.Layers = make([]LayerRef, 6)
	if err := pl.CreateFunction(bad); err == nil {
		t.Fatal("six layers accepted")
	}

	bad = base
	bad.Name = "j"
	bad.PackageBytes = 100 << 20
	bad.Layers = []LayerRef{{SizeBytes: 169 << 20}}
	if err := pl.CreateFunction(bad); err == nil {
		t.Fatal("package+layers over 250MB accepted")
	}

	bad = base
	bad.Name = "k"
	bad.Handler = nil
	if err := pl.CreateFunction(bad); err == nil {
		t.Fatal("nil handler accepted")
	}
}

func TestInvokeBilling(t *testing.T) {
	pl, meter := newPlatform()
	if err := pl.CreateFunction(FunctionConfig{Name: "f", MemoryMB: 1024, Handler: echoHandler}); err != nil {
		t.Fatal(err)
	}
	res, err := pl.Invoke("f", []byte("x"), InvokeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.ColdStart {
		t.Fatal("first invocation should be cold")
	}
	if string(res.Response) != "x" {
		t.Fatalf("response %q", res.Response)
	}
	// Duration = coldstart + overhead + 200ms.
	p := perf.Default()
	want := p.ColdStartBase + p.InvokeOverhead + 200*time.Millisecond
	if res.Duration != want {
		t.Fatalf("duration %v, want %v", res.Duration, want)
	}
	// Execution bills the duration rounded up to the billing granularity.
	g := pricing.LambdaBillingGranularity
	billed := (res.Duration + g - 1) / g * g
	if billed == res.Duration {
		t.Fatalf("duration %v sits on the billing granularity: the rounding goes unchecked", res.Duration)
	}
	wantCost := billed.Seconds()*pricing.LambdaGBSecond + pricing.LambdaInvocation
	if diff := res.Cost - wantCost; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("cost %v, want %v", res.Cost, wantCost)
	}
	if meter.Breakdown()["lambda:invocations"] != pricing.LambdaInvocation {
		t.Fatal("invocation fee not metered")
	}

	// Second invocation is warm: shorter.
	res2, err := pl.Invoke("f", nil, InvokeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res2.ColdStart || res2.Duration >= res.Duration {
		t.Fatalf("warm invocation not faster: %v vs %v", res2.Duration, res.Duration)
	}
}

func TestInvokeDeferredBilling(t *testing.T) {
	pl, meter := newPlatform()
	pl.CreateFunction(FunctionConfig{Name: "f", MemoryMB: 512, Handler: echoHandler})
	res, err := pl.Invoke("f", nil, InvokeOptions{DeferBilling: true})
	if err != nil {
		t.Fatal(err)
	}
	if meter.Breakdown()["lambda:execution"] != 0 {
		t.Fatal("deferred invocation charged execution")
	}
	if res.Cost != pricing.LambdaInvocation {
		t.Fatalf("deferred cost %v", res.Cost)
	}
	settled := pl.SettleExecution(512, 10*time.Second)
	want := pricing.LambdaExecutionCost(512, 10*time.Second)
	if settled != want || meter.Breakdown()["lambda:execution"] != want {
		t.Fatalf("settled %v, want %v", settled, want)
	}
}

func TestInvokeUnknownFunction(t *testing.T) {
	pl, _ := newPlatform()
	if _, err := pl.Invoke("ghost", nil, InvokeOptions{}); err == nil {
		t.Fatal("unknown function invoked")
	}
}

func TestTimeoutEnforced(t *testing.T) {
	pl, _ := newPlatform()
	pl.CreateFunction(FunctionConfig{
		Name: "slow", MemoryMB: 512, Timeout: time.Second,
		Handler: func(ctx *Context, _ []byte) ([]byte, error) {
			ctx.advance("spin", 10*time.Second)
			return nil, nil
		},
	})
	res, err := pl.Invoke("slow", nil, InvokeOptions{})
	if err == nil || !strings.Contains(err.Error(), "timed out") {
		t.Fatalf("expected timeout, got %v", err)
	}
	if res.Duration != time.Second {
		t.Fatalf("timeout billed %v, want 1s", res.Duration)
	}
}

func TestTmpQuota(t *testing.T) {
	pl, _ := newPlatform()
	pl.CreateFunction(FunctionConfig{
		Name: "fat", MemoryMB: 512,
		Handler: func(ctx *Context, _ []byte) ([]byte, error) {
			if err := ctx.TmpAlloc(400 << 20); err != nil {
				return nil, err
			}
			if err := ctx.TmpAlloc(200 << 20); err != nil {
				return nil, err // expected path
			}
			return nil, nil
		},
	})
	_, err := pl.Invoke("fat", nil, InvokeOptions{})
	if err == nil || !strings.Contains(err.Error(), "/tmp overflow") {
		t.Fatalf("expected tmp overflow, got %v", err)
	}
}

func TestTmpFreeAllowsReuse(t *testing.T) {
	pl, _ := newPlatform()
	pl.CreateFunction(FunctionConfig{
		Name: "cycle", MemoryMB: 512,
		Handler: func(ctx *Context, _ []byte) ([]byte, error) {
			for i := 0; i < 3; i++ {
				if err := ctx.TmpAlloc(300 << 20); err != nil {
					return nil, err
				}
				ctx.TmpFree(300 << 20)
			}
			return []byte("ok"), nil
		},
	})
	if _, err := pl.Invoke("cycle", nil, InvokeOptions{}); err != nil {
		t.Fatal(err)
	}
}

func TestHandlerPanicIsError(t *testing.T) {
	pl, _ := newPlatform()
	pl.CreateFunction(FunctionConfig{
		Name: "boom", MemoryMB: 512,
		Handler: func(ctx *Context, _ []byte) ([]byte, error) {
			panic("kaput")
		},
	})
	if _, err := pl.Invoke("boom", nil, InvokeOptions{}); err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("panic not surfaced: %v", err)
	}
}

func TestContextS3Integration(t *testing.T) {
	pl, meter := newPlatform()
	store := s3.New(s3.DefaultConfig(), meter)
	store.Put("in", []byte("hello"))
	pl.CreateFunction(FunctionConfig{
		Name: "copy", MemoryMB: 1024,
		Handler: func(ctx *Context, _ []byte) ([]byte, error) {
			data, err := ctx.GetObject(store, "in")
			if err != nil {
				return nil, err
			}
			if err := ctx.PutObject(store, "out", data); err != nil {
				return nil, err
			}
			return data, nil
		},
	})
	res, err := pl.Invoke("copy", nil, InvokeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if n, ok := store.Head("out"); !ok || n != 5 {
		t.Fatal("output object missing")
	}
	// Phases must include the S3 read and write.
	var names []string
	for _, ph := range res.Phases {
		names = append(names, ph.Name)
	}
	joined := strings.Join(names, ",")
	if !strings.Contains(joined, "s3-read") || !strings.Contains(joined, "s3-write") {
		t.Fatalf("phases missing s3 spans: %v", joined)
	}
}

func TestPhasesSumToDuration(t *testing.T) {
	pl, _ := newPlatform()
	pl.CreateFunction(FunctionConfig{
		Name: "phased", MemoryMB: 512,
		Handler: func(ctx *Context, _ []byte) ([]byte, error) {
			ctx.InitDeps(10 << 20)
			if err := ctx.LoadWeights(10 << 20); err != nil {
				return nil, err
			}
			ctx.Compute(1e9, 10<<20)
			return nil, nil
		},
	})
	res, err := pl.Invoke("phased", nil, InvokeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var sum time.Duration
	for _, ph := range res.Phases {
		sum += ph.Duration
	}
	if sum != res.Duration {
		t.Fatalf("phase sum %v != duration %v", sum, res.Duration)
	}
}

func TestDeleteFunction(t *testing.T) {
	pl, _ := newPlatform()
	pl.CreateFunction(FunctionConfig{Name: "f", MemoryMB: 512, Handler: echoHandler})
	pl.DeleteFunction("f")
	if _, err := pl.Invoke("f", nil, InvokeOptions{}); err == nil {
		t.Fatal("deleted function invoked")
	}
	if len(pl.Functions()) != 0 {
		t.Fatal("function list not empty")
	}
}
