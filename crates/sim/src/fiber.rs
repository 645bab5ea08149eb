//! Stackful fibers: every task runs on a stack of its own, on the one OS
//! thread inside `Sim::run`, and control passes from task to task by a
//! user-level register switch (DESIGN.md D1, D19).
//!
//! This is the crate's only `unsafe` code. Its invariant: a [`Context`]
//! holds `RUNNING` (its owner is executing, or a [`Resume`] for it is in
//! flight), `FINISHED`, or the stack pointer of a frame that
//! `switch_stack` saved or [`Fiber::new`] laid out, on a stack that stays
//! mapped while the pointer is stored. [`Context::take`] empties the slot,
//! so a saved frame resumes at most once, and a [`Fiber`] returns its
//! stack to the pool only when no frame on it can run again.
//!
//! Stacks are reused: each thread keeps a pool of the stacks its finished
//! fibers left, trimmed to their top page, and maps a fresh one only when
//! the pool is empty. The pool unmaps them when its thread exits.

#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
compile_error!("diomp-sim switches fiber stacks in x86_64 assembly over Linux mmap: x86_64 Linux is the only supported host");

use std::cell::{Cell, RefCell};
use std::ffi::{c_int, c_void};
use std::mem::ManuallyDrop;
use std::rc::Rc;

/// Usable stack per task: std's default for a spawned thread. Mapped
/// `MAP_NORESERVE`, so only the pages a task touches cost memory.
const STACK_BYTES: usize = 2 << 20;
/// One `PROT_NONE` page below the stack turns an overflow into a fault.
const GUARD_BYTES: usize = 4096;
/// The top page of a pooled stack stays resident: the next fiber's first
/// frame and entry run there without a fault.
const TOP_BYTES: usize = 4096;

const RUNNING: usize = 0;
const FINISHED: usize = 1;

const PROT_NONE: c_int = 0;
const PROT_READ: c_int = 1;
const PROT_WRITE: c_int = 2;
const MAP_PRIVATE: c_int = 0x02;
const MAP_ANONYMOUS: c_int = 0x20;
const MAP_NORESERVE: c_int = 0x4000;
/// Also keeps transparent huge pages off the stack.
const MAP_STACK: c_int = 0x20000;
const MADV_DONTNEED: c_int = 4;

extern "C" {
    fn mmap(
        addr: *mut c_void,
        len: usize,
        prot: c_int,
        flags: c_int,
        fd: c_int,
        off: i64,
    ) -> *mut c_void;
    fn mprotect(addr: *mut c_void, len: usize, prot: c_int) -> c_int;
    fn munmap(addr: *mut c_void, len: usize) -> c_int;
    fn madvise(addr: *mut c_void, len: usize, advice: c_int) -> c_int;
}

thread_local! {
    /// Stacks no frame can run on again, for this thread's next fibers.
    /// Grows to the thread's peak number of live fibers.
    static POOL: RefCell<Vec<Stack>> = const { RefCell::new(Vec::new()) };
}

/// A guarded stack mapping, unmapped when dropped.
struct Stack {
    /// Lowest address of the mapping, guard page included.
    base: *mut c_void,
}

impl Stack {
    const LEN: usize = GUARD_BYTES + STACK_BYTES;

    /// A pooled stack if this thread has one, else a fresh mapping.
    fn get() -> Stack {
        POOL.with_borrow_mut(Vec::pop).unwrap_or_else(Stack::map)
    }

    fn map() -> Stack {
        let flags = MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK;
        // SAFETY: a fresh anonymous mapping at an address of the kernel's
        // choosing aliases nothing.
        let base =
            unsafe { mmap(std::ptr::null_mut(), Self::LEN, PROT_READ | PROT_WRITE, flags, -1, 0) };
        assert!(base as isize != -1, "mapping a fiber stack: {}", std::io::Error::last_os_error());
        // Owned from here on, so a failed guard unmaps it.
        let stack = Stack { base };
        // SAFETY: the guard is the first page of the mapping just made.
        let rc = unsafe { mprotect(base, GUARD_BYTES, PROT_NONE) };
        assert_eq!(rc, 0, "guarding a fiber stack: {}", std::io::Error::last_os_error());
        stack
    }

    /// One past the highest address of the stack, 4 KiB-aligned.
    fn top(&self) -> usize {
        self.base as usize + Self::LEN
    }

    /// Release every page below the top one and put the stack in this
    /// thread's pool; unmap it if the pool is already gone.
    fn recycle(self) {
        // Once this thread's pool is gone, the closure is dropped uncalled
        // and the stack it owns is unmapped with it.
        let _ = POOL.try_with(move |pool| {
            let below = self.base as usize + GUARD_BYTES;
            // SAFETY: no frame on the stack can run again, so nothing
            // reads the pages below its top, which read as zeros again.
            let rc =
                unsafe { madvise(below as *mut c_void, STACK_BYTES - TOP_BYTES, MADV_DONTNEED) };
            assert_eq!(rc, 0, "trimming a fiber stack: {}", std::io::Error::last_os_error());
            pool.borrow_mut().push(self);
        });
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        // SAFETY: the mapping is this value's alone, and nothing points
        // into it any more.
        unsafe { munmap(self.base, Self::LEN) };
    }
}

/// Where a suspended execution context resumes: its saved stack pointer.
#[derive(Default)]
pub(crate) struct Context {
    sp: Cell<usize>,
}

impl Context {
    /// Take the right to resume this context, which must be suspended.
    pub(crate) fn take(&self) -> Resume {
        let sp = self.sp.replace(RUNNING);
        assert!(sp > FINISHED, "resuming a context that is not suspended");
        Resume { sp }
    }
}

/// The right to resume one suspended context, once.
pub(crate) struct Resume {
    sp: usize,
}

/// Suspend the caller into `save` and resume `to`; returns once something
/// resumes `save`.
pub(crate) fn switch(save: &Context, to: Resume) {
    assert_eq!(save.sp.get(), RUNNING, "saving over a suspended or finished context");
    // SAFETY: `to.sp` is a frame on a mapped stack (module invariant), and
    // taking it emptied its slot, so nothing else resumes it. The frame
    // saved here stays where it is until `save` is taken: a fiber's
    // stack is not unmapped while its context holds a mid-run frame, and
    // the runner's thread stack is frozen under the fibers it runs.
    unsafe { switch_stack(save.sp.as_ptr(), to.sp) }
}

/// Push the callee-saved registers, MXCSR and the x87 control word (SysV
/// makes all of them callee-saved), store the stack pointer at `*save`,
/// then load `to` and pop the same state from there.
#[unsafe(naked)]
unsafe extern "C" fn switch_stack(save: *mut usize, to: usize) {
    std::arch::naked_asm!(
        "push rbp",
        "push rbx",
        "push r12",
        "push r13",
        "push r14",
        "push r15",
        "sub rsp, 8",
        "stmxcsr [rsp]",
        "fnstcw [rsp + 4]",
        "mov [rdi], rsp",
        "mov rsp, rsi",
        "ldmxcsr [rsp]",
        "fldcw [rsp + 4]",
        "add rsp, 8",
        "pop r15",
        "pop r14",
        "pop r13",
        "pop r12",
        "pop rbx",
        "pop rbp",
        "ret",
    )
}

/// A fresh fiber's first code, entered by `switch_stack`'s `ret` on a
/// 16-byte aligned stack: `fiber_main(rbx)`. Its return address is
/// undefined to the unwinder, so backtraces stop at the fiber's base.
#[unsafe(naked)]
unsafe extern "C" fn trampoline() {
    std::arch::naked_asm!(
        ".cfi_startproc",
        ".cfi_undefined rip",
        "mov rdi, rbx",
        "call {main}",
        "ud2",
        ".cfi_endproc",
        main = sym fiber_main,
    )
}

/// What a fiber runs: `entry`, then a last switch to `exit`.
struct Start {
    entry: Box<dyn FnOnce(Rc<Context>)>,
    me: Rc<Context>,
    exit: Rc<Context>,
}

extern "C" fn fiber_main(start: *mut Start) -> ! {
    // SAFETY: `Fiber::new` leaked this box into the initial frame, which
    // runs at most once; `Fiber`'s drop reclaims it only if it never ran.
    let Start { entry, me, exit } = *unsafe { Box::from_raw(start) };
    // The entry drops what it captured before returning, and `me` and
    // `exit` go before the last switch: a finished stack owns nothing.
    entry(me.clone());
    me.sp.set(FINISHED);
    drop(me);
    let to = exit.take();
    drop(exit);
    switch(&Context::default(), to);
    unreachable!("a finished fiber was resumed");
}

/// A task's stack and, until the task first runs, its entry.
pub(crate) struct Fiber {
    /// Leaked unless the drop finds that no frame on it can run again.
    stack: ManuallyDrop<Stack>,
    ctx: Rc<Context>,
    /// The frame `new` laid out: still in `ctx` if and only if the fiber
    /// never ran, since every later frame sits deeper in the stack.
    initial_sp: usize,
    start: *mut Start,
}

impl Fiber {
    /// Take a stack and lay out a frame that, once resumed, runs `entry`
    /// with the fiber's own context and then switches to `exit` for good.
    pub(crate) fn new(exit: Rc<Context>, entry: impl FnOnce(Rc<Context>) + 'static) -> Fiber {
        let stack = Stack::get();
        let ctx = Rc::new(Context::default());
        let start = Box::new(Start { entry: Box::new(entry), me: ctx.clone(), exit });
        let start = Box::into_raw(start);
        // What `switch_stack` pops: MXCSR and the x87 control word at
        // their SysV defaults, r15–r12, rbx = `start`, rbp = 0 (the end
        // of the frame-pointer chain), and the return into `trampoline`,
        // which then finds the stack 16-byte aligned.
        let (csr, ret) = ((0x037F << 32) | 0x1F80, trampoline as *const () as usize);
        let frame: [usize; 8] = [csr, 0, 0, 0, 0, start as usize, 0, ret];
        let sp = stack.top() - 16 - std::mem::size_of_val(&frame);
        // SAFETY: the frame's 64 bytes lie in the writable part of the
        // mapping, 16 bytes below its 4 KiB-aligned end, so `sp` is aligned;
        // no frame of an earlier fiber on a pooled stack can run again.
        unsafe { (sp as *mut [usize; 8]).write(frame) };
        ctx.sp.set(sp);
        Fiber { stack: ManuallyDrop::new(stack), ctx, initial_sp: sp, start }
    }

    /// Take the right to resume this fiber, which must be suspended.
    pub(crate) fn take(&self) -> Resume {
        self.ctx.take()
    }
}

impl Drop for Fiber {
    fn drop(&mut self) {
        match self.ctx.sp.replace(RUNNING) {
            sp if sp == self.initial_sp => {
                // SAFETY: `start` is `new`'s box, and the only frame that
                // would have reclaimed it can no longer be resumed.
                drop(unsafe { Box::from_raw(self.start) });
            }
            FINISHED => {}
            // Running, or suspended mid-run: frames on this stack may
            // still run or be borrowed, so the mapping is leaked.
            _ => return,
        }
        // SAFETY: the fiber never ran or has finished, so no frame on the
        // stack can run again and nothing points into it; `stack` is not
        // touched after this drop.
        unsafe { ManuallyDrop::take(&mut self.stack) }.recycle();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `/proc/self/smaps` from the entry of the mapping that starts at
    /// `addr` on: its header line, then its fields, then the rest.
    fn smaps_from(addr: usize) -> Vec<String> {
        let smaps = std::fs::read_to_string("/proc/self/smaps").unwrap();
        let start = |line: &str| usize::from_str_radix(line.split('-').next().unwrap(), 16).ok();
        smaps.lines().skip_while(|line| start(line) != Some(addr)).map(String::from).collect()
    }

    /// The end and permissions of the mapping that starts at `addr`.
    fn mapping_at(addr: usize) -> Option<(usize, String)> {
        let header = smaps_from(addr).into_iter().next()?;
        let mut fields = header.split_whitespace();
        let end = fields.next()?.split_once('-')?.1;
        Some((usize::from_str_radix(end, 16).ok()?, fields.next()?.to_string()))
    }

    /// Resident KiB of the mapping that starts at `addr`.
    fn rss_kib_at(addr: usize) -> u64 {
        let smaps = smaps_from(addr);
        let rss = smaps.iter().find_map(|l| l.strip_prefix("Rss:")).expect("a mapping at addr");
        rss.trim().trim_end_matches("kB").trim().parse().unwrap()
    }

    /// Recurse with 1 KiB of live frame per level until `budget` bytes of
    /// stack lie below `top`; returns the number of levels.
    fn dig(top: usize, budget: usize) -> u32 {
        let mut frame = [0u8; 1024];
        std::hint::black_box(&mut frame);
        let deeper = if top - frame.as_ptr() as usize >= budget { 0 } else { dig(top, budget) };
        deeper + 1 + std::hint::black_box(&frame)[0] as u32
    }

    #[test]
    fn a_finished_or_unrun_fibers_guarded_stack_goes_to_the_next_fiber() {
        let runner = Rc::new(Context::default());
        let ran = Fiber::new(runner.clone(), |_| {});
        switch(&runner, ran.take());
        let unrun = Fiber::new(runner.clone(), |_| {});
        for fiber in [ran, unrun] {
            let base = fiber.stack.base as usize;
            drop(fiber);
            // Still mapped, guard and all, while it waits in the pool.
            assert_eq!(mapping_at(base), Some((base + GUARD_BYTES, "---p".into())));
            let stack = base + GUARD_BYTES;
            assert_eq!(mapping_at(stack), Some((base + Stack::LEN, "rw-p".into())));
            let next = Fiber::new(runner.clone(), |_| {});
            assert_eq!(next.stack.base as usize, base, "the pooled stack is reused");
        }
    }

    #[test]
    fn a_pooled_stack_keeps_only_its_top_page_resident() {
        let runner = Rc::new(Context::default());
        let levels = Rc::new(Cell::new(0));
        let dug = levels.clone();
        let deep = Fiber::new(runner.clone(), move |_| {
            let top = 0u8;
            dug.set(dig(std::hint::black_box(&top) as *const u8 as usize, 1 << 20));
        });
        switch(&runner, deep.take());
        assert!(levels.get() >= 900, "{} levels", levels.get());
        let stack = deep.stack.base as usize + GUARD_BYTES;
        assert!(rss_kib_at(stack) >= 1024, "the task touched a mebibyte");
        drop(deep);
        let rss = rss_kib_at(stack);
        assert!(rss <= TOP_BYTES as u64 / 1024, "a pooled stack keeps {rss} kB resident");
    }
}
