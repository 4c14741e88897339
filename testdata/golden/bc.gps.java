// Generated by the Green-Marl → Pregel compiler from procedure "bc_approx".
// Target: GPS (master.compute + vertex.compute extended Pregel API).

class Message implements Writable {
    byte type;
    long f0; // raw 64-bit slot (long/double/boolean/vertex-id)
    long f1; // raw 64-bit slot (long/double/boolean/vertex-id)
    public void write(DataOutput out) throws IOException {
        out.writeByte(type);
        switch (type) {
            case 0: out.writeInt((int) f0); break;
            case 1: out.writeDouble(Double.longBitsToDouble(f0)); break;
            case 2:  break;
            case 3: out.writeDouble(Double.longBitsToDouble(f0)); out.writeDouble(Double.longBitsToDouble(f1)); break;
        }
    }
    public void readFields(DataInput in) throws IOException {
        type = in.readByte();
        switch (type) {
            case 0: f0 = in.readInt(); break;
            case 1: f0 = Double.doubleToLongBits(in.readDouble()); break;
            case 2:  break;
            case 3: f0 = Double.doubleToLongBits(in.readDouble()); f1 = Double.doubleToLongBits(in.readDouble()); break;
        }
    }
}

class BcApproxVertexValue implements Writable {
    double BC;
    double sigma;
    double delta;
    long _lev0;
    double _t13;
    double _t14;
    int[] in_nbrs; // §4.3 incoming-neighbor list (when used)
    public void write(DataOutput out) throws IOException {
        out.writeDouble(BC);
        out.writeDouble(sigma);
        out.writeDouble(delta);
        out.writeLong(_lev0);
        out.writeDouble(_t13);
        out.writeDouble(_t14);
    }
    public void readFields(DataInput in) throws IOException {
        BC = in.readDouble();
        sigma = in.readDouble();
        delta = in.readDouble();
        _lev0 = in.readLong();
        _t13 = in.readDouble();
        _t14 = in.readDouble();
    }
}

class BcApproxMaster extends Master {
    int _state = 0;
    long K;
    long k;
    int s;
    int _root3;
    boolean _fin1;
    long _curr2;
    
    public void compute(int superstepNo) {
        while (true) {
            switch (_state) {
                case 0: { // vertex-parallel state "in_nbr_send"
                    getGlobalObjectMap().put("_state", new IntOverwrite(0));
                    _state = 1; return; // run vertex.compute this superstep
                }
                case 1: { // vertex-parallel state "in_nbr_collect"
                    getGlobalObjectMap().put("_state", new IntOverwrite(1));
                    _state = 2; return; // run vertex.compute this superstep
                }
                case 2: { // master block
                    _state = 3; break;
                }
                case 3: { // master block
                    k = 0L;
                    _state = 4; break;
                }
                case 4: { // master block
                    _state = ((k < K)) ? 5 : 34; break;
                }
                case 5: { // master block
                    s = pickRandomVertex();
                    _state = 6; break;
                }
                case 6: { // vertex-parallel state "state5"
                    getGlobalObjectMap().put("_state", new IntOverwrite(6));
                    getGlobalObjectMap().put("s", new IntOverwrite(s));
                    _state = 7; return; // run vertex.compute this superstep
                }
                case 7: { // master block
                    _state = 8; break;
                }
                case 8: { // master block
                    _state = 9; break;
                }
                case 9: { // master block
                    _root3 = s;
                    _state = 10; break;
                }
                case 10: { // master block
                    _state = 11; break;
                }
                case 11: { // vertex-parallel state "state11"
                    getGlobalObjectMap().put("_state", new IntOverwrite(11));
                    getGlobalObjectMap().put("_root3", new IntOverwrite(_root3));
                    _state = 12; return; // run vertex.compute this superstep
                }
                case 12: { // master block
                    _fin1 = false;
                    _curr2 = 0L;
                    _state = 13; break;
                }
                case 13: { // master block
                    _state = (!_fin1) ? 14 : 24; break;
                }
                case 14: { // master block
                    _fin1 = true;
                    _state = 15; break;
                }
                case 15: { // vertex-parallel state "state14"
                    getGlobalObjectMap().put("_state", new IntOverwrite(15));
                    getGlobalObjectMap().put("_curr2", new LongOverwrite(_curr2));
                    _state = 16; return; // run vertex.compute this superstep
                }
                case 16: { // master block
                    _state = 17; break;
                }
                case 17: { // vertex-parallel state "state16_recv"
                    getGlobalObjectMap().put("_state", new IntOverwrite(17));
                    getGlobalObjectMap().put("_curr2", new LongOverwrite(_curr2));
                    _state = 18; return; // run vertex.compute this superstep
                }
                case 18: { // master block
                    _state = 19; break;
                }
                case 19: { // master block
                    _state = 20; break;
                }
                case 20: { // vertex-parallel state "state19_recv"
                    getGlobalObjectMap().put("_state", new IntOverwrite(20));
                    getGlobalObjectMap().put("_curr2", new LongOverwrite(_curr2));
                    _state = 21; return; // run vertex.compute this superstep
                }
                case 21: { // master block
                    if (getGlobalObjectMap().hasUpdates("_fin1_&=")) {
                        _fin1 = getGlobalObjectMap().get("_fin1_&=").getValue();
                    }
                    _state = 22; break;
                }
                case 22: { // master block
                    _curr2 = (_curr2 + 1L);
                    _state = 23; break;
                }
                case 23: { // master block
                    _state = 13; break;
                }
                case 24: { // master block
                    _curr2 = (_curr2 - 1L);
                    _state = 25; break;
                }
                case 25: { // master block
                    _state = ((_curr2 >= 0L)) ? 26 : 32; break;
                }
                case 26: { // vertex-parallel state "state26"
                    getGlobalObjectMap().put("_state", new IntOverwrite(26));
                    getGlobalObjectMap().put("_curr2", new LongOverwrite(_curr2));
                    _state = 27; return; // run vertex.compute this superstep
                }
                case 27: { // master block
                    _state = 28; break;
                }
                case 28: { // vertex-parallel state "state27_recv"
                    getGlobalObjectMap().put("_state", new IntOverwrite(28));
                    getGlobalObjectMap().put("_curr2", new LongOverwrite(_curr2));
                    _state = 29; return; // run vertex.compute this superstep
                }
                case 29: { // master block
                    _state = 30; break;
                }
                case 30: { // master block
                    _curr2 = (_curr2 - 1L);
                    _state = 31; break;
                }
                case 31: { // master block
                    _state = 25; break;
                }
                case 32: { // master block
                    k = (k + 1L);
                    _state = 33; break;
                }
                case 33: { // master block
                    _state = 4; break;
                }
                case 34: { // master block
                    haltComputation(); return;
                }
            }
        }
    }
}

class BcApproxVertex extends Vertex<BcApproxVertexValue, Message> {
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
                getValue().in_nbrs = collectSenderIds(messages);
                getValue().BC = 0.0;
                break;
            }
            case 6: { // state5
                int s = ((IntOverwrite) getGlobalObjectMap().get("s")).getValue();
                getValue().sigma = 0.0;
                getValue().delta = 0.0;
                if ((getId() == s)) {
                    getValue().sigma = 1.0;
                }
                getValue()._lev0 = Long.MAX_VALUE;
                break;
            }
            case 11: { // state11
                int _root3 = ((IntOverwrite) getGlobalObjectMap().get("_root3")).getValue();
                if ((getId() == _root3)) {
                    getValue()._lev0 = 0L;
                }
                break;
            }
            case 15: { // state14
                long _curr2 = ((LongOverwrite) getGlobalObjectMap().get("_curr2")).getValue();
                if ((getValue()._lev0 == _curr2)) {
                    getValue()._t13 = 0.0;
                }
                if ((getValue()._lev0 == (_curr2 - 1L))) {
                    for (int e = 0; e < getNeighborsCount(); e++) {
                        Message m = new Message();
                        m.f0 = Double.doubleToLongBits(getValue().sigma);
                        sendMessage(getNeighborId(e), m);
                    }
                }
                break;
            }
            case 17: { // state16_recv
                long _curr2 = ((LongOverwrite) getGlobalObjectMap().get("_curr2")).getValue();
                for (Message m : messages) {
                    if (m.type == 1) {
                        if ((getValue()._lev0 == _curr2)) {
                            getValue()._t13 += Double.longBitsToDouble(m.f0);
                        }
                    }
                }
                if ((getValue()._lev0 == _curr2)) {
                    getValue().sigma += getValue()._t13;
                }
                if ((getValue()._lev0 == _curr2)) {
                    for (int e = 0; e < getNeighborsCount(); e++) {
                        Message m = new Message();
                        sendMessage(getNeighborId(e), m);
                    }
                }
                break;
            }
            case 20: { // state19_recv
                long _curr2 = ((LongOverwrite) getGlobalObjectMap().get("_curr2")).getValue();
                for (Message m : messages) {
                    if (m.type == 2) {
                        if ((getValue()._lev0 == Long.MAX_VALUE)) {
                            getValue()._lev0 = Math.min(getValue()._lev0, (_curr2 + 1L));
                            getGlobalObjectMap().put("_fin1_&=", new Reduce(false));
                        }
                    }
                }
                break;
            }
            case 26: { // state26
                long _curr2 = ((LongOverwrite) getGlobalObjectMap().get("_curr2")).getValue();
                if ((getValue()._lev0 == _curr2)) {
                    getValue()._t14 = 0.0;
                }
                if ((getValue()._lev0 == (_curr2 + 1L))) {
                    for (int i = 0; i < getValue().in_nbrs.length; i++) {
                        Message m = new Message();
                        m.f0 = Double.doubleToLongBits(getValue().sigma);
                        m.f1 = Double.doubleToLongBits((1.0 + getValue().delta));
                        sendMessage(getValue().in_nbrs[i], m);
                    }
                }
                break;
            }
            case 28: { // state27_recv
                long _curr2 = ((LongOverwrite) getGlobalObjectMap().get("_curr2")).getValue();
                for (Message m : messages) {
                    if (m.type == 3) {
                        if ((getValue()._lev0 == _curr2)) {
                            getValue()._t14 += ((getValue().sigma / Double.longBitsToDouble(m.f0)) * Double.longBitsToDouble(m.f1));
                        }
                    }
                }
                if ((getValue()._lev0 == _curr2)) {
                    getValue().delta = getValue()._t14;
                    getValue().BC += getValue().delta;
                }
                break;
            }
        }
    }
}
