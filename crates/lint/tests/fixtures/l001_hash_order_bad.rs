use std::collections::HashMap;

pub fn value_counts(items: &[u32]) -> Vec<(u32, usize)> {
    let mut counts: HashMap<u32, usize> = HashMap::new();
    for item in items {
        *counts.entry(*item).or_insert(0) += 1;
    }
    let mut out = Vec::new();
    for (value, count) in &counts {
        out.push((*value, *count));
    }
    out
}

pub fn first_keys(counts: &HashMap<u32, usize>) -> Vec<u32> {
    counts.keys().copied().take(3).collect()
}
