// Generated by the Green-Marl → Pregel compiler from procedure "conductance".
// Target: GPS (master.compute + vertex.compute extended Pregel API).

class Message implements Writable {
    byte type;
    long f0; // raw 64-bit slot (long/double/boolean/vertex-id)
    public void write(DataOutput out) throws IOException {
        out.writeByte(type);
        switch (type) {
            case 0: out.writeInt((int) f0); break;
            case 1:  break;
        }
    }
    public void readFields(DataInput in) throws IOException {
        type = in.readByte();
        switch (type) {
            case 0: f0 = in.readInt(); break;
            case 1:  break;
        }
    }
}

class ConductanceVertexValue implements Writable {
    long member;
    long _t4;
    int[] in_nbrs; // §4.3 incoming-neighbor list (when used)
    public void write(DataOutput out) throws IOException {
        out.writeLong(member);
        out.writeLong(_t4);
    }
    public void readFields(DataInput in) throws IOException {
        member = in.readLong();
        _t4 = in.readLong();
    }
}

class ConductanceMaster extends Master {
    int _state = 0;
    long num;
    long Din;
    long Dout;
    long Cross;
    long _r0;
    long _r1;
    long _r2;
    double m;
    
    public void compute(int superstepNo) {
        while (true) {
            switch (_state) {
                case 0: { // vertex-parallel state "in_nbr_send"
                    getGlobalObjectMap().put("_state", new IntOverwrite(0));
                    _state = 1; return; // run vertex.compute this superstep
                }
                case 1: { // vertex-parallel state "in_nbr_collect"
                    getGlobalObjectMap().put("_state", new IntOverwrite(1));
                    getGlobalObjectMap().put("num", new LongOverwrite(num));
                    _state = 2; return; // run vertex.compute this superstep
                }
                case 2: { // master block
                    Din = 0L;
                    Dout = 0L;
                    Cross = 0L;
                    _r0 = 0L;
                    _state = 3; break;
                }
                case 3: { // master block
                    _state = 4; break;
                }
                case 4: { // master block
                    if (getGlobalObjectMap().hasUpdates("_r0_+=")) {
                        _r0 += getGlobalObjectMap().get("_r0_+=").getValue();
                    }
                    _state = 5; break;
                }
                case 5: { // master block
                    Din = _r0;
                    _r1 = 0L;
                    _state = 6; break;
                }
                case 6: { // master block
                    _state = 7; break;
                }
                case 7: { // master block
                    if (getGlobalObjectMap().hasUpdates("_r1_+=")) {
                        _r1 += getGlobalObjectMap().get("_r1_+=").getValue();
                    }
                    _state = 8; break;
                }
                case 8: { // master block
                    Dout = _r1;
                    _r2 = 0L;
                    _state = 9; break;
                }
                case 9: { // master block
                    _state = 10; break;
                }
                case 10: { // master block
                    _state = 11; break;
                }
                case 11: { // vertex-parallel state "state10_recv"
                    getGlobalObjectMap().put("_state", new IntOverwrite(11));
                    getGlobalObjectMap().put("num", new LongOverwrite(num));
                    _state = 12; return; // run vertex.compute this superstep
                }
                case 12: { // master block
                    _state = 13; break;
                }
                case 13: { // master block
                    if (getGlobalObjectMap().hasUpdates("_r2_+=")) {
                        _r2 += getGlobalObjectMap().get("_r2_+=").getValue();
                    }
                    _state = 14; break;
                }
                case 14: { // master block
                    Cross = _r2;
                    m = ((Din < Dout) ? (1.0 * Din) : (1.0 * Dout));
                    if ((m == 0.0)) {
                        setResult(((Cross == 0L) ? 0.0 : Double.POSITIVE_INFINITY));
                        haltComputation(); return;
                    } else {
                        setResult((Cross / m));
                        haltComputation(); return;
                    }
                    haltComputation(); return;
                }
            }
        }
    }
}

class ConductanceVertex extends Vertex<ConductanceVertexValue, Message> {
    public void compute(Iterable<Message> messages, int superstepNo) {
        int _state = ((IntOverwrite) getGlobalObjectMap().get("_state")).getValue();
        switch (_state) {
            case 0: { // in_nbr_send
                for (int e = 0; e < getNeighborsCount(); e++) {
                    Message m = new Message();
                    m.f0 = getId();
                    sendMessage(getNeighborId(e), m);
                }
                break;
            }
            case 1: { // in_nbr_collect
                long num = ((LongOverwrite) getGlobalObjectMap().get("num")).getValue();
                getValue().in_nbrs = collectSenderIds(messages);
                if ((getValue().member == num)) {
                    getGlobalObjectMap().put("_r0_+=", new Reduce(getNeighborsCount()));
                }
                if ((getValue().member != num)) {
                    getGlobalObjectMap().put("_r1_+=", new Reduce(getNeighborsCount()));
                }
                if ((getValue().member == num)) {
                    getValue()._t4 = 0L;
                }
                if ((getValue().member != num)) {
                    for (int i = 0; i < getValue().in_nbrs.length; i++) {
                        Message m = new Message();
                        sendMessage(getValue().in_nbrs[i], m);
                    }
                }
                break;
            }
            case 11: { // state10_recv
                long num = ((LongOverwrite) getGlobalObjectMap().get("num")).getValue();
                for (Message m : messages) {
                    if (m.type == 1) {
                        if ((getValue().member == num)) {
                            getValue()._t4 += 1L;
                        }
                    }
                }
                if ((getValue().member == num)) {
                    getGlobalObjectMap().put("_r2_+=", new Reduce(getValue()._t4));
                }
                break;
            }
        }
    }
}
