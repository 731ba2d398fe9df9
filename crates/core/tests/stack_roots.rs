//! The stack part of the root set is exactly the live frames: a popped
//! frame's locals stop being roots at `Return`, and a goroutine that lands
//! in a recycled slot starts with an empty stack, whether the previous
//! occupant returned or GOLF reclaimed it.

use golf_core::Session;
use golf_heap::Handle;
use golf_runtime::{FuncBuilder, GStatus, Gid, ProgramSet, Value, Vm, VmConfig};

fn session(p: ProgramSet) -> Session {
    Session::golf(Vm::boot(p, VmConfig::default()))
}

fn ticks(s: &mut Session, n: u32) {
    for _ in 0..n {
        s.vm_mut().step_tick();
    }
}

/// The heap references on `gid`'s stack.
fn stack_refs(s: &Session, gid: Gid) -> Vec<Handle> {
    let g = s.vm().goroutine(gid).expect("goroutine is live");
    g.stack.iter().filter_map(|v| v.as_ref_handle()).collect()
}

#[test]
fn a_returned_frame_roots_nothing() {
    let mut p = ProgramSet::new();
    // func hold() { b := new([64]byte); time.Sleep(10) }
    let mut b = FuncBuilder::new("hold", 0);
    let blob = b.var("blob");
    b.new_blob(blob, 64);
    b.sleep(10);
    b.ret(None);
    let hold = p.define(b);
    // func main() { hold(); time.Sleep(1000) }
    let mut b = FuncBuilder::new("main", 0);
    let pad = b.var("pad");
    b.konst(pad, Value::Int(1));
    b.call(hold, &[], None);
    b.sleep(1_000);
    b.ret(None);
    p.define(b);

    let mut s = session(p);
    let main = s.vm().main_gid();
    ticks(&mut s, 5);
    let g = s.vm().goroutine(main).expect("main is live");
    assert_eq!(g.frames.len(), 2, "main sleeps inside hold");
    assert_eq!(g.stack.len(), 2, "main's local, then hold's");
    let [h] = stack_refs(&s, main)[..] else { panic!("hold's blob is the only reference") };
    s.collect();
    assert!(s.vm().heap().contains(h), "a live callee's local is a root");

    ticks(&mut s, 20);
    let g = s.vm().goroutine(main).expect("main is live");
    assert_eq!((g.frames.len(), g.stack.len()), (1, 1), "Return truncated the stack");
    s.collect();
    assert!(!s.vm().heap().contains(h), "a returned callee's local is no root");
    assert!(s.vm().heap().is_empty());
}

/// main spawns an occupant that allocates a blob and then returns (after a
/// sleep) or deadlocks, and later spawns `waits`, whose frame is wider.
fn recycling(deadlocks: bool) -> ProgramSet {
    let mut p = ProgramSet::new();
    let (first, second) = (p.site("occupant"), p.site("successor"));
    let mut b = FuncBuilder::new("occupant", 0);
    let blob = b.var("blob");
    b.new_blob(blob, 64);
    if deadlocks {
        // <-make(chan int)
        let ch = b.var("ch");
        b.make_chan(ch, 0);
        b.recv(ch, None);
    } else {
        b.sleep(5);
    }
    b.ret(None);
    let occupant = p.define(b);
    let mut b = FuncBuilder::new("waits", 0);
    for name in ["a", "b", "c"] {
        b.var(name);
    }
    b.sleep(1_000);
    b.ret(None);
    let waits = p.define(b);
    let mut b = FuncBuilder::new("main", 0);
    b.go(occupant, &[], first);
    b.sleep(20);
    b.go(waits, &[], second);
    b.sleep(1_000);
    b.ret(None);
    p.define(b);
    p
}

/// The goroutine other than main, if there is one.
fn other(s: &Session) -> Option<Gid> {
    s.vm().live_goroutines().map(|g| g.id).find(|&g| g != s.vm().main_gid())
}

#[test]
fn a_recycled_slot_roots_nothing_of_its_previous_occupant() {
    for deadlocks in [false, true] {
        let mut s = session(recycling(deadlocks));
        let (occupant, blob) = (0..10)
            .find_map(|_| {
                ticks(&mut s, 1);
                let g = other(&s)?;
                Some((g, *stack_refs(&s, g).first()?))
            })
            .expect("the occupant allocates its blob");
        ticks(&mut s, 10);
        if deadlocks {
            // GOLF reclaims the deadlocked occupant; its blob dies with it.
            s.collect();
        }
        let status = s.vm().goroutine(occupant).map(|g| g.status);
        assert_eq!(status, Some(GStatus::Dead), "the occupant's slot is free");

        ticks(&mut s, 15);
        let waits = other(&s).expect("waits is live");
        assert_eq!(waits.index(), occupant.index(), "waits took the occupant's slot");
        let g = s.vm().goroutine(waits).expect("waits is live");
        assert_eq!(g.stack, [Value::Nil; 3], "a recycled slot starts empty");
        assert_eq!(g.stack_roots().count(), 0);
        s.collect();
        assert!(!s.vm().heap().contains(blob), "the occupant's blob is no root");
        assert!(s.vm().heap().is_empty());
    }
}
