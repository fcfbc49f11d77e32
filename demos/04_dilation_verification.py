"""
Verifying the protocol rate from the channel dilation
=====================================================

Every attenuating or amplifying channel is a two-mode symplectic (a beam
splitter or a squeezer) acting on the signal and a thermal environment.
Purifying the environment makes the global state pure, so the eavesdropper's
entropy equals that of the modes she does not hold.  That is how the
protocol engine reads her entropies without building her modes, for every
channel class, and rebuilds the achievable rate as mutual information minus
Holevo information to check it against the closed form.
"""

from gausskey import (
    apply_dilation,
    dilate,
    make_canonical,
    partial_trace,
    protocol_holevo_information,
    protocol_rate_numeric,
    r_rev,
    tmsv,
    von_neumann_entropy,
)

ch = make_canonical(0.5, nbar=0.25)

# The dilation is globally pure: the four-mode state of (Alice, Bob,
# environment output, environment purifier) has zero entropy, and any
# bipartition has matching marginal entropies.
joint, env = apply_dilation(tmsv(20.0), dilate(ch), mode=1)
print(f"global entropy of the dilated state: {von_neumann_entropy(joint):.2e}")
s_ab = von_neumann_entropy(partial_trace(joint, (0, 1)))
s_e = von_neumann_entropy(partial_trace(joint, env))
print(f"S(Alice,Bob) = {s_ab:.12f}")
print(f"S(environment) = {s_e:.12f}")

# The protocol rate, its Holevo term read from the complementary modes, against
# the closed form.
# The discarded beam-splitter port can be read two ways; only the trusted
# reading (Eve does not hold the detection-noise mode) converges.
closed = r_rev(ch)
print(f"\nclosed-form protocol rate: {closed:.6f}")
print("      mu    trusted      untrusted")
for mu in (10.0, 100.0, 1000.0):
    t = protocol_rate_numeric(ch, mu, port_model="trusted")
    u = protocol_rate_numeric(ch, mu, port_model="untrusted")
    print(f"{mu:8.0f}  {t:.6f}     {u:.6f}")

# Eve's Holevo information about Bob's outcome is what separates the mutual
# information from the key rate; handing her the discarded port only helps
# her.
chi_t = protocol_holevo_information(ch, 1000.0, port_model="trusted")
chi_u = protocol_holevo_information(ch, 1000.0, port_model="untrusted")
print(f"\nchi(E:y) trusted   = {chi_t:.6f}")
print(f"chi(E:y) untrusted = {chi_u:.6f}")

# Both homodyne bases tell the same story.
rq = protocol_rate_numeric(ch, 1000.0, basis="q")
rp = protocol_rate_numeric(ch, 1000.0, basis="p")
print(f"\nq-basis rate - p-basis rate = {rq - rp:.2e}")
