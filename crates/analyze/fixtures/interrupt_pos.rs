//! Positive fixture: a worker loop that never polls its flag.
pub struct Worker {
    budget: usize,
}

impl Worker {
    pub fn run(&mut self) {
        while self.budget > 0 {
            self.budget -= 1;
        }
    }
}
