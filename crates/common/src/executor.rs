//! [`block_on`]: the entire async runtime the workspace needs, with zero
//! dependencies.
//!
//! The engine's async front-end hands out completion futures that fleet
//! worker threads resolve. No executor is assumed — they can be awaited
//! inside any runtime — and [`block_on`] drives one to completion on the
//! current thread with a `std::task::Wake` park/unpark loop.

use std::future::Future;
use std::sync::{Arc, Condvar, Mutex};
use std::task::{Context, Poll, Wake, Waker};

/// The thread-parking waker behind [`block_on`]: `wake` unparks the
/// polling thread (and flags the wake first, closing the race where the
/// unpark lands before the park).
struct ThreadWaker {
    ready: Mutex<bool>,
    cv: Condvar,
}

impl Wake for ThreadWaker {
    fn wake(self: Arc<Self>) {
        self.wake_by_ref();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        *self.ready.lock().expect("waker flag poisoned") = true;
        self.cv.notify_one();
    }
}

/// Drives `future` to completion on the current thread: poll, park until
/// woken, poll again. This is the whole executor — enough to await any
/// combination of completion futures without an async runtime in the
/// dependency tree.
pub fn block_on<F: Future>(future: F) -> F::Output {
    let waker_state = Arc::new(ThreadWaker {
        ready: Mutex::new(false),
        cv: Condvar::new(),
    });
    let waker = Waker::from(waker_state.clone());
    let mut cx = Context::from_waker(&waker);
    let mut future = std::pin::pin!(future);
    loop {
        if let Poll::Ready(out) = future.as_mut().poll(&mut cx) {
            return out;
        }
        let mut ready = waker_state.ready.lock().expect("waker flag poisoned");
        while !*ready {
            ready = waker_state.cv.wait(ready).expect("waker flag poisoned");
        }
        *ready = false;
    }
}
