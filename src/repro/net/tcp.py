"""TCP constants: header flags and the maximum segment size.

Only the wire format's values live here; connection behaviour
(handshake, ordering, acking) is in :mod:`repro.net.stack`, and the
capture log (:mod:`repro.net.capture`) writes the headers.
"""

FLAG_FIN = 0x01
FLAG_SYN = 0x02
FLAG_PSH = 0x08
FLAG_ACK = 0x10

#: The segment size the TV announces in its SYN's MSS option and cuts
#: its data into; servers announce the same.
MSS = 1460
