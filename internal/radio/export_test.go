package radio

// LifeSalt exports lifeSalt to the external tests: a node's (L+2)-th life
// draws from rng.ForNode(rng.Mix(seed, LifeSalt+L), id).
const LifeSalt = lifeSalt
