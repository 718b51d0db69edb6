//! Fixture: hot-loop near-misses in a kernel file — pre-sized buffers,
//! shared schema handles, and collects that sit outside any explicit
//! loop all stay silent under L14. near-miss(L14)

impl Batch {
    pub fn rechunk(&self, counts: &[usize]) -> Vec<Vec<u64>> {
        let mut out = Vec::with_capacity(counts.len());
        for &c in counts {
            out.push(Vec::with_capacity(c));
        }
        out
    }

    pub fn tag_all(&self, parts: &mut [Part]) {
        for p in parts {
            p.schema = self.schema.clone();
        }
    }

    pub fn widths(&self) -> Vec<usize> {
        self.columns.iter().map(|c| c.len()).collect()
    }
}
