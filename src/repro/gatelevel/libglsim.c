/* Netlist-independent bit-parallel gate-level replay kernel.
 *
 * One translation unit serves every netlist: the levelized schedule
 * arrives as data (a gl_prog built once per replay engine), so the
 * shared object is compiled once per machine and cached by the hash of
 * this file plus the compiler's identity.  Net values are uint64 words
 * whose bit lanes are independent simulations (one snapshot per lane).
 *
 * Semantics mirror the numpy interpreter in gl_sim.py exactly:
 *   - forces apply before the first level and after every level;
 *   - each level evaluates its gate groups, then its SRAM read ports;
 *   - a cycle is pokes -> eval -> checks -> toggle count -> SRAM write
 *     ports -> DFF commit, with a strict stop leaving the failing cycle
 *     settled but uncommitted.
 * CONST0/CONST1 are ordinary nets holding 0 and all-ones.
 */
#include <stdint.h>
#include <time.h>

enum {
  C_INV, C_BUF, C_AND2, C_OR2, C_XOR2, C_XNOR2, C_NAND2, C_NOR2, C_MUX2
};

/* Strides of the descriptor tables in gl_prog. */
#define LEVEL_W 2  /* group_end, rport_end */
#define GROUP_W 3  /* cell, gate_begin, gate_end */
#define GATE_W 4   /* out, in0, in1, in2 */
#define RPORT_W 6  /* macro, depth, addr_off, addr_n, data_off, data_n */
#define WPORT_W 7  /* macro, depth, en, addr_off, addr_n, data_off, data_n */

typedef struct {
  int64_t n_nets;
  int64_t n_dff;
  int64_t n_levels;
  int64_t n_wports;
  const int64_t *levels;
  const int64_t *groups;
  const int32_t *gates;
  const int64_t *rports;
  const int64_t *wports;
  const int64_t *port_nets;
  const int64_t *dff_d;
  const int64_t *dff_q;
} gl_prog;

typedef struct {
  uint64_t *V;
  uint64_t *PREV;
  uint64_t *PLANES;
  int64_t planes_cap;
  int64_t *planes_used;
  uint64_t **stores;
  int64_t **lasts;
  int64_t *reads;
  int64_t *writes;
  uint64_t *dff_tmp;
  int64_t lanes;
  uint64_t active_mask;
} gl_state;

typedef struct {
  int64_t n;
  const int64_t *nets;
  const uint64_t *masks;
  const uint64_t *vals;
} gl_forces;

typedef struct {
  int64_t n_cycles;
  const int64_t *poke_counts;
  const uint64_t *poke_masks;
  const int64_t *poke_off;
  const int64_t *poke_cnt;
  const int64_t *poke_nets;
  const uint64_t *poke_words;
  const int64_t *check_counts;
  const uint64_t *check_masks;
  const int64_t *check_off;
  const int64_t *check_cnt;
  const int64_t *check_nets;
  const uint64_t *check_words;
  const int64_t *force_counts;
  const int64_t *force_off;
  const int64_t *force_nets;
  const uint64_t *force_masks;
  const uint64_t *force_vals;
  int64_t ambient_n;
  const int64_t *ambient_nets;
  const uint64_t *ambient_masks;
  const uint64_t *ambient_vals;
  int64_t strict;
  int64_t *mismatches;
  int64_t *stop;
  int64_t profile;
  double *phase_ns;
} gl_run;

static void apply_forces(uint64_t *V, const gl_forces *F) {
  for (int64_t i = 0; i < F->n; i++) {
    int64_t net = F->nets[i];
    V[net] = (V[net] & ~F->masks[i]) | F->vals[i];
  }
}

static int64_t lowbit(uint64_t x) {
#if defined(__GNUC__)
  return (int64_t)__builtin_ctzll(x);
#else
  int64_t i = 0;
  while (!((x >> i) & 1)) i++;
  return i;
#endif
}

/* One (level, cell) group: gates of one level never feed each other,
 * so evaluation order inside a group is free. */
static void eval_group(uint64_t *V, const int32_t *g, const int32_t *end,
                       int64_t cell) {
  switch (cell) {
  case C_INV:
    for (; g < end; g += GATE_W) V[g[0]] = ~V[g[1]];
    break;
  case C_BUF:
    for (; g < end; g += GATE_W) V[g[0]] = V[g[1]];
    break;
  case C_AND2:
    for (; g < end; g += GATE_W) V[g[0]] = V[g[1]] & V[g[2]];
    break;
  case C_OR2:
    for (; g < end; g += GATE_W) V[g[0]] = V[g[1]] | V[g[2]];
    break;
  case C_XOR2:
    for (; g < end; g += GATE_W) V[g[0]] = V[g[1]] ^ V[g[2]];
    break;
  case C_XNOR2:
    for (; g < end; g += GATE_W) V[g[0]] = ~(V[g[1]] ^ V[g[2]]);
    break;
  case C_NAND2:
    for (; g < end; g += GATE_W) V[g[0]] = ~(V[g[1]] & V[g[2]]);
    break;
  case C_NOR2:
    for (; g < end; g += GATE_W) V[g[0]] = ~(V[g[1]] | V[g[2]]);
    break;
  case C_MUX2:
    /* sel ? b : c as c ^ ((b ^ c) & sel) */
    for (; g < end; g += GATE_W) {
      uint64_t b = V[g[2]], c = V[g[3]];
      V[g[0]] = c ^ ((b ^ c) & V[g[1]]);
    }
    break;
  }
}

/* Lane address from packed address nets (at most 62 bits). */
static int64_t lane_addr(const uint64_t *V, const int64_t *nets, int64_t n,
                         int64_t lane) {
  int64_t addr = 0;
  for (int64_t i = 0; i < n; i++)
    addr |= (int64_t)((V[nets[i]] >> lane) & 1) << i;
  return addr;
}

/* Async read port: per-lane address, store gather, bit repacking, and
 * the last-address memo / read counter update. */
static void read_port(const gl_prog *P, uint64_t *V, uint64_t **stores,
                      int64_t *last, int64_t *reads, int64_t lanes,
                      const int64_t *d) {
  int64_t depth = d[1];
  const int64_t *addr_nets = P->port_nets + d[2];
  const int64_t *data_nets = P->port_nets + d[4];
  int64_t n_addr = d[3], width = d[5];
  const uint64_t *S = stores[d[0]];
  int64_t *RD = reads + d[0] * lanes;
  uint64_t acc[64];
  for (int64_t j = 0; j < width; j++) acc[j] = 0;
  for (int64_t lane = 0; lane < lanes; lane++) {
    int64_t addr = lane_addr(V, addr_nets, n_addr, lane);
    uint64_t w = addr < depth ? S[(uint64_t)lane * depth + addr] : 0;
    for (int64_t j = 0; j < width; j++) acc[j] |= ((w >> j) & 1) << lane;
    if (addr != last[lane]) {
      last[lane] = addr;
      RD[lane] += 1;
    }
  }
  for (int64_t j = 0; j < width; j++) V[data_nets[j]] = acc[j];
}

static void eval_once(const gl_prog *P, uint64_t *V, const gl_forces *F,
                      uint64_t **stores, int64_t **lasts, int64_t *reads,
                      int64_t lanes) {
  const int64_t *grp = P->groups;
  const int64_t *grp_base = P->groups;
  int64_t r = 0;
  if (F->n) apply_forces(V, F);
  for (int64_t l = 0; l < P->n_levels; l++) {
    const int64_t *grp_end = grp_base + GROUP_W * P->levels[LEVEL_W * l];
    int64_t r_end = P->levels[LEVEL_W * l + 1];
    for (; grp < grp_end; grp += GROUP_W)
      eval_group(V, P->gates + GATE_W * grp[1], P->gates + GATE_W * grp[2],
                 grp[0]);
    for (; r < r_end; r++)
      read_port(P, V, stores, lasts[r], reads, lanes, P->rports + RPORT_W * r);
    if (F->n) apply_forces(V, F);
  }
}

static void write_ports(const gl_prog *P, const uint64_t *V,
                        const gl_state *S) {
  for (int64_t k = 0; k < P->n_wports; k++) {
    const int64_t *d = P->wports + WPORT_W * k;
    int64_t depth = d[1];
    const int64_t *addr_nets = P->port_nets + d[3];
    const int64_t *data_nets = P->port_nets + d[5];
    uint64_t *store = S->stores[d[0]];
    int64_t *WR = S->writes + d[0] * S->lanes;
    uint64_t en = V[d[2]] & S->active_mask;
    while (en) {
      int64_t lane = lowbit(en);
      en &= en - 1;
      int64_t addr = lane_addr(V, addr_nets, d[4], lane);
      if (addr >= depth) continue;
      uint64_t w = 0;
      for (int64_t i = 0; i < d[6]; i++)
        w |= ((V[data_nets[i]] >> lane) & 1) << i;
      store[(uint64_t)lane * depth + addr] = w;
      WR[lane] += 1;
    }
  }
}

/* DFF commit: gather every D before scattering to Q (aliasing). */
static void commit_dffs(const gl_prog *P, uint64_t *V, uint64_t *T) {
  for (int64_t i = 0; i < P->n_dff; i++) T[i] = V[P->dff_d[i]];
  for (int64_t i = 0; i < P->n_dff; i++) V[P->dff_q[i]] = T[i];
}

/* Fused XOR diff + prev update + vertical ripple-carry add into the
 * toggle-counter planes; the carry usually dies after a plane or two. */
static int64_t toggle_tick(int64_t n_nets, uint64_t *V, uint64_t *P,
                           uint64_t *PL, int64_t cap, int64_t used,
                           uint64_t active) {
  for (int64_t i = 0; i < n_nets; i++) {
    uint64_t cur = V[i];
    uint64_t carry = (cur ^ P[i]) & active;
    P[i] = cur;
    int64_t p = 0;
    while (carry && p < cap) {
      uint64_t *pl = PL + (uint64_t)p * n_nets + i;
      uint64_t nc = *pl & carry;
      *pl ^= carry;
      carry = nc;
      p++;
    }
    if (p > used) used = p;
  }
  return used;
}

static double now_ns(void) {
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return (double)ts.tv_sec * 1e9 + (double)ts.tv_nsec;
}

/* Settle combinational logic once under the given forces. */
void gl_eval(const gl_prog *P, gl_state *S, const gl_forces *F) {
  eval_once(P, S->V, F, S->stores, S->lasts, S->reads, S->lanes);
}

/* Run R->n_cycles whole cycles; returns the number fully committed
 * (fewer only on a strict stop, recorded as {cycle, check, lane}). */
int64_t gl_run_cycles(const gl_prog *P, gl_state *S, gl_run *R) {
  uint64_t *V = S->V;
  int64_t used = *S->planes_used;
  int64_t poke_op = 0, check_op = 0;
  gl_forces F;
  double t0 = 0.0, t1 = 0.0;
  R->stop[0] = -1; R->stop[1] = -1; R->stop[2] = -1;
  for (int64_t t = 0; t < R->n_cycles; t++) {
    if (R->profile) t0 = now_ns();
    if (R->poke_counts) {
      int64_t ops = R->poke_counts[t];
      for (int64_t k = 0; k < ops; k++, poke_op++) {
        uint64_t mask = R->poke_masks[poke_op];
        const int64_t *nets = R->poke_nets + R->poke_off[poke_op];
        const uint64_t *words = R->poke_words + R->poke_off[poke_op];
        for (int64_t j = 0; j < R->poke_cnt[poke_op]; j++)
          V[nets[j]] = (V[nets[j]] & ~mask) | (words[j] & mask);
      }
    }
    if (R->force_counts) {
      F.n = R->force_counts[t];
      F.nets = R->force_nets + R->force_off[t];
      F.masks = R->force_masks + R->force_off[t];
      F.vals = R->force_vals + R->force_off[t];
    } else {
      F.n = R->ambient_n;
      F.nets = R->ambient_nets;
      F.masks = R->ambient_masks;
      F.vals = R->ambient_vals;
    }
    if (R->profile) { t1 = now_ns(); R->phase_ns[0] += t1 - t0; t0 = t1; }
    eval_once(P, V, &F, S->stores, S->lasts, S->reads, S->lanes);
    if (R->profile) { t1 = now_ns(); R->phase_ns[1] += t1 - t0; t0 = t1; }
    if (R->check_counts) {
      int64_t ops = R->check_counts[t];
      for (int64_t k = 0; k < ops; k++, check_op++) {
        const int64_t *nets = R->check_nets + R->check_off[check_op];
        const uint64_t *words = R->check_words + R->check_off[check_op];
        uint64_t diff = 0;
        for (int64_t j = 0; j < R->check_cnt[check_op]; j++)
          diff |= V[nets[j]] ^ words[j];
        diff &= R->check_masks[check_op];
        while (diff) {
          int64_t lane = lowbit(diff);
          diff &= diff - 1;
          R->mismatches[lane] += 1;
          if (R->strict) {
            R->stop[0] = t; R->stop[1] = check_op; R->stop[2] = lane;
            *S->planes_used = used;
            return t;
          }
        }
      }
    }
    if (R->profile) { t1 = now_ns(); R->phase_ns[2] += t1 - t0; t0 = t1; }
    used = toggle_tick(P->n_nets, V, S->PREV, S->PLANES, S->planes_cap,
                       used, S->active_mask);
    if (R->profile) { t1 = now_ns(); R->phase_ns[3] += t1 - t0; t0 = t1; }
    write_ports(P, V, S);
    if (R->profile) { t1 = now_ns(); R->phase_ns[4] += t1 - t0; t0 = t1; }
    commit_dffs(P, V, S->dff_tmp);
    if (R->profile) { t1 = now_ns(); R->phase_ns[5] += t1 - t0; t0 = t1; }
  }
  *S->planes_used = used;
  return R->n_cycles;
}
