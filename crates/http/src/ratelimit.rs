//! Per-client token-bucket rate limiting keyed by peer IP address.
//!
//! Each client IP gets a bucket of `burst` tokens refilled at `rate_per_s`;
//! a request costs one token, and an empty bucket means 429. The table
//! itself is bounded: when it grows past its cap, buckets idle long enough
//! to have fully refilled are dropped (they are indistinguishable from
//! fresh ones), so an address-spoofing client cannot leak memory here.

use dpipe_sync::LockRecoverTagged;

use std::collections::HashMap;
use std::net::IpAddr;
use std::sync::Mutex;
use std::time::Instant;

struct Bucket {
    tokens: f64,
    last: Instant,
}

/// A token-bucket rate limiter over client IPs. `rate_per_s <= 0` disables
/// limiting entirely (every request is allowed).
pub struct RateLimiter {
    rate_per_s: f64,
    burst: f64,
    /// Buckets table cap; see module docs.
    max_clients: usize,
    state: Mutex<HashMap<IpAddr, Bucket>>,
}

/// Names [`RateLimiter::state`] in the lock witness's panic.
const LIMITER_STATE_TAG: &str = "http::RateLimiter::state";

impl RateLimiter {
    /// A limiter allowing `rate_per_s` sustained requests per second per
    /// client with bursts of `burst` (clamped to at least 1 when enabled).
    pub fn new(rate_per_s: f64, burst: f64) -> Self {
        RateLimiter {
            rate_per_s,
            burst: burst.max(1.0),
            max_clients: 4096,
            state: Mutex::new(HashMap::new()),
        }
    }

    /// True when rate limiting is disabled.
    pub fn disabled(&self) -> bool {
        self.rate_per_s <= 0.0
    }

    /// Takes one token for `ip`; `false` means the client is over its rate.
    pub fn allow(&self, ip: IpAddr) -> bool {
        if self.disabled() {
            return true;
        }
        let now = Instant::now();
        let mut state = self.state.lock_recover_tagged(LIMITER_STATE_TAG);
        if state.len() >= self.max_clients && !state.contains_key(&ip) {
            // Drop buckets that have refilled completely: forgetting them
            // is observationally identical to keeping them.
            let (rate, burst) = (self.rate_per_s, self.burst);
            state.retain(|_, b| b.tokens + now.duration_since(b.last).as_secs_f64() * rate < burst);
        }
        let bucket = state.entry(ip).or_insert(Bucket {
            tokens: self.burst,
            last: now,
        });
        let elapsed = now.duration_since(bucket.last).as_secs_f64();
        bucket.tokens = (bucket.tokens + elapsed * self.rate_per_s).min(self.burst);
        bucket.last = now;
        if bucket.tokens >= 1.0 {
            bucket.tokens -= 1.0;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ip(last: u8) -> IpAddr {
        IpAddr::from([127, 0, 0, last])
    }

    #[test]
    fn zero_rate_disables_limiting() {
        let rl = RateLimiter::new(0.0, 8.0);
        assert!(rl.disabled());
        for _ in 0..1000 {
            assert!(rl.allow(ip(1)));
        }
    }

    #[test]
    fn burst_then_reject_per_client() {
        // 1 req/s, burst 3: three immediate requests pass, the fourth is
        // rejected; a different client is unaffected.
        let rl = RateLimiter::new(1.0, 3.0);
        assert!(rl.allow(ip(1)));
        assert!(rl.allow(ip(1)));
        assert!(rl.allow(ip(1)));
        assert!(!rl.allow(ip(1)));
        assert!(rl.allow(ip(2)));
    }

    #[test]
    fn tokens_refill_over_time() {
        let rl = RateLimiter::new(1000.0, 1.0);
        assert!(rl.allow(ip(1)));
        assert!(!rl.allow(ip(1)));
        std::thread::sleep(std::time::Duration::from_millis(5));
        assert!(rl.allow(ip(1)), "bucket should refill at 1000/s");
    }
}
